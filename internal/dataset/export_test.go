package dataset

// Load fills the named demo database with its generator's rows and does not
// analyse it, so that tests hold the rows from before the freeze.
var Load = load

// Identical reports whether two cells are the same: two decimals of the same
// bits, else EqualStrict.
var Identical = identical

// Frozen reports whether a database is analysed: whether it refuses writes.
var Frozen = frozen
