package dataset

// Fault points of the ingestion layer, hit once per load — at the file
// or directory level, not per row — so real ingestion cost is
// unchanged while tests and the chaos suite can fail any load
// deterministically.

import "prism/internal/fault"

var (
	// faultCSV fires at CSV ingestion entry (file and directory loads).
	faultCSV = fault.Register("dataset.csv.read")
	// faultSQLite fires at SQLite ingestion entry.
	faultSQLite = fault.Register("dataset.sqlite.read")
	// faultOpen fires in Open, before format sniffing.
	faultOpen = fault.Register("dataset.open")
)
