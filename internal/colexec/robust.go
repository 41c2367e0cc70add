package colexec

// Fault points of the columnar backend, hit once per executor call —
// never per row or per block — so the disarmed cost is one atomic load
// and the warm existence probe stays at 0 allocs/op.

import "prism/internal/fault"

var (
	// faultExec fires at ExecuteWith entry (mapping previews, result
	// assembly).
	faultExec = fault.Register("colexec.exec")
	// faultScan fires at Exists entry — the validation probe path.
	faultScan = fault.Register("colexec.scan")
)
