// Shared-scan batched existence: ExistsBatch answers many predicate sets
// over one plan with a single scan/join pipeline.
//
// The validation phase asks the same candidate plan thousands of existence
// questions that differ only in their pushed-down predicates (one per
// filter × sample). Run sequentially, every question re-scans the base
// tables and re-executes the joins. The batched path instead:
//
//  1. evaluates every set's predicates per base table — scan-shaped sets
//     share ONE pass over the rows (dictionary verdict tables are built
//     once per set×column and consulted by code), keyword-equality sets
//     are seeded from the index exactly like the single-probe path — and
//     records each set's surviving rows in a per-(set, table) rowset
//     bitmap; sets whose selection is provably (zone map) or actually
//     empty are answered false immediately;
//  2. runs the materialising join pipeline ONCE (joinPipeline — the only
//     place the executor still builds a join; single probes walk it
//     depth-first and stop at the first tuple): every pipeline row
//     carries a uint64 membership mask (bit per set, sets per batch capped
//     at 64 — larger batches are chunked) that starts from the per-set
//     bitmaps on the starting table and is ANDed with each newly joined
//     table's bitmaps; rows whose mask empties are dropped as they form,
//     so "mix" rows — combinations of different sets' selections that
//     belong to no single set — never materialise;
//  3. replays each surviving joined row's mask: a set is satisfied by the
//     first row carrying its bit (plus its tuple predicate, evaluated on
//     the lazily gathered projection). Each set early-exits once
//     satisfied; the whole batch early-exits once every verdict is known.
//
// Soundness: a set's bitmap on a table is exactly the selection its own
// Exists would push down, and join/residual semantics are
// selection-independent — so a joined row carries set si's bit iff every
// one of its table-components is in si's selections, i.e. exactly the rows
// si's own execution would produce. Verdicts therefore byte-match
// exec.SequentialExistsBatch (the differential suite pins this); execution
// stats legitimately differ, since the batch does less work.
package colexec

import (
	"fmt"
	"math/bits"

	"prism/internal/exec"
	"prism/internal/rowset"
)

// batchPred is one pushed-down predicate of one batch member.
type batchPred struct {
	bp  boundPred
	set int
}

// maskSetLimit is the widest batch one masked pipeline run can carry: one
// bit per set in a row's uint64 membership mask. ExistsBatch chunks wider
// batches into successive runs.
const maskSetLimit = 64

// ExistsBatch implements exec.Executor with a shared scan/join pipeline
// over the whole batch. Per the contract, only opts' execution controls
// (MaxIntermediate, Interrupt) are honoured; each set carries its own
// predicates.
func (e *Executor) ExistsBatch(p exec.Plan, sets []exec.PredicateSet, opts exec.ExecOptions) ([]exec.Verdict, exec.ExecStats, error) {
	if err := faultBatch.Hit(); err != nil {
		return nil, exec.ExecStats{}, err
	}
	if len(sets) == 0 {
		return []exec.Verdict{}, exec.ExecStats{}, nil
	}
	if len(sets) == 1 {
		ok, stats, err := e.Exists(p, exec.ExecOptions{
			ColumnPredicates: sets[0].ColumnPredicates,
			TuplePredicate:   sets[0].TuplePredicate,
			MaxIntermediate:  opts.MaxIntermediate,
			Interrupt:        opts.Interrupt,
			Selections:       opts.Selections,
		})
		if err != nil {
			return nil, stats, err
		}
		return []exec.Verdict{{Satisfied: ok}}, stats, nil
	}
	if len(sets) > maskSetLimit {
		verdicts := make([]exec.Verdict, 0, len(sets))
		var total exec.ExecStats
		for lo := 0; lo < len(sets); lo += maskSetLimit {
			hi := lo + maskSetLimit
			if hi > len(sets) {
				hi = len(sets)
			}
			vs, stats, err := e.ExistsBatch(p, sets[lo:hi], opts)
			total.Add(stats)
			if err != nil {
				return nil, total, err
			}
			verdicts = append(verdicts, vs...)
		}
		return verdicts, total, nil
	}
	st := e.getState()
	verdicts, stats, err := e.runBatch(st, p, sets, opts)
	stats.ScratchBytes = st.scratchFootprint()
	e.putState(st)
	if err != nil && stats.AbortedTooLarge {
		// The union of the batch's selections can push an intermediate over
		// MaxIntermediate even though every per-set execution stays under
		// it. Fall back to the sequential reference semantics instead of
		// failing a batch whose members would each succeed; the aborted
		// shared attempt's work is still reported.
		seqVerdicts, seqStats, seqErr := exec.SequentialExistsBatch(e, p, sets, opts)
		total := stats.ExecStats
		total.AbortedTooLarge = false
		total.Add(seqStats)
		return seqVerdicts, total, seqErr
	}
	return verdicts, stats.ExecStats, err
}

func (e *Executor) runBatch(st *execState, p exec.Plan, sets []exec.PredicateSet, opts exec.ExecOptions) ([]exec.Verdict, runStats, error) {
	var stats runStats
	if err := e.bind(st, p, exec.ExecOptions{}); err != nil {
		return nil, stats, err
	}
	st.interrupt.Reset(opts.Interrupt)

	// Bind every set's predicates. Predicates on tables outside the plan
	// are ignored per set, exactly as the single-probe bind does.
	for si := range sets {
		for _, cp := range sets[si].ColumnPredicates {
			ti := st.tabIndex(cp.Ref.Table)
			if ti < 0 {
				continue
			}
			ci := st.tabs[ti].columnIndex(cp.Ref.Column)
			if ci < 0 {
				return nil, stats, fmt.Errorf("colexec: predicate column %s not in table %s", cp.Ref, st.tabs[ti].name)
			}
			st.batchPreds = append(st.batchPreds, batchPred{bp: boundPred{cp: cp, tab: ti, ci: ci}, set: si})
		}
	}

	nSets, nTabs := len(sets), len(st.tabs)
	st.setLive = resizeBools(st.setLive, nSets, true)
	st.setSat = resizeBools(st.setSat, nSets, false)
	st.setBMs = resizeBitmapRefs(st.setBMs, nSets*nTabs)

	live := nSets
	for ti := 0; ti < nTabs && live > 0; ti++ {
		killed, interrupted := e.batchSelectTable(st, ti, &stats.ExecStats)
		live -= killed
		if interrupted {
			stats.hasPartial = true
			return nil, stats, exec.ErrInterrupted
		}
	}
	if live == 0 {
		// Every set's selection emptied before a single join ran: the whole
		// batch is answered false.
		return make([]exec.Verdict, nSets), stats, nil
	}

	// Install the shared selections: on tables every live set constrains,
	// the union of their bitmaps bounds the pipeline; anywhere some live
	// set is unconstrained the full table is scanned and the per-set
	// bitmaps are enforced on the joined rows instead.
	for ti := 0; ti < nTabs; ti++ {
		all := true
		for si := 0; si < nSets; si++ {
			if st.setLive[si] && st.setBMs[si*nTabs+ti] == nil {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		sel := st.getSelection()
		bm := st.getBitmap(st.tabs[ti].numRows)
		for si := 0; si < nSets; si++ {
			if st.setLive[si] {
				bm.Or(st.setBMs[si*nTabs+ti])
			}
		}
		idSlot, ids := st.getIDs()
		ids = bm.AppendTo(ids)
		st.keepIDs(idSlot, ids)
		sel.Rows = bm
		sel.IDs = ids
		st.sels[ti] = sel
	}

	if err := e.planLevels(st, p); err != nil {
		return nil, stats, err
	}
	nRows, err := st.joinPipeline(opts, &stats)
	if err != nil {
		return nil, stats, err
	}

	// Replay the surviving rows' membership masks. A row answers set si iff
	// it carries si's bit — the masked join already verified every
	// table-component against si's selections — and the tuple predicate
	// (if any) accepts the projection, gathered at most once per row.
	// Satisfied sets drop out; the loop stops when all verdicts are known.
	proj := st.scratch[:len(st.gathers)]
	remaining := live
	satisfied := 0
	for r := 0; r < nRows && remaining > 0; r++ {
		if st.interrupt.Hit() {
			stats.hasPartial = true
			return nil, stats, exec.ErrInterrupted
		}
		gathered := false
		for m := st.maskCur[r]; m != 0; m &= m - 1 {
			si := bits.TrailingZeros64(m)
			if st.setSat[si] {
				continue
			}
			if tp := sets[si].TuplePredicate; tp != nil {
				if !gathered {
					for gi := range st.gathers {
						g := &st.gathers[gi]
						proj[gi] = g.col.value(st.cur[g.slot][r])
					}
					gathered = true
				}
				if !tp(proj) {
					continue
				}
			}
			st.setSat[si] = true
			remaining--
			satisfied++
		}
	}

	verdicts := make([]exec.Verdict, nSets)
	for si := range verdicts {
		verdicts[si].Satisfied = st.setLive[si] && st.setSat[si]
	}
	stats.ResultRows = satisfied
	if remaining == 0 {
		stats.TerminatedEarly = true
	}
	return verdicts, stats, nil
}

// batchSelectTable evaluates every live set's pushed-down predicates on
// table ti, installing one verdict bitmap per constrained (set, table)
// pair in st.setBMs. Keyword-equality sets go through the index-seeded
// path one set at a time; all scan-shaped sets share a single pass over
// the rows. Sets whose selection empties are killed (verdict false). It
// returns how many sets were killed and whether execution was interrupted.
func (e *Executor) batchSelectTable(st *execState, ti int, stats *exec.ExecStats) (killed int, interrupted bool) {
	t := st.tabs[ti]
	nTabs := len(st.tabs)
	st.scanSets = st.scanSets[:0]

	for si := range st.setLive {
		if !st.setLive[si] {
			continue
		}
		hasPred, hasKeyword := false, false
		for bi := range st.batchPreds {
			b := &st.batchPreds[bi]
			if b.set != si || b.bp.tab != ti {
				continue
			}
			hasPred = true
			// Zone-map pruning, per set (selectRows phase 1): a provably
			// empty selection answers the set false without touching a row.
			z := &t.cols[b.bp.ci].zone
			rejectsNull := b.bp.cp.Bounds != nil || len(b.bp.cp.Keywords) > 0
			if rejectsNull && z.rows == z.nulls {
				st.setLive[si] = false
				stats.ZonesPruned++
				break
			}
			if bnd := b.bp.cp.Bounds; bnd != nil && z.numeric && z.rows > z.nulls {
				if (bnd.HasLo && z.maxF < bnd.Lo) || (bnd.HasHi && z.minF > bnd.Hi) {
					st.setLive[si] = false
					stats.ZonesPruned++
					break
				}
			}
			if len(b.bp.cp.Keywords) > 0 {
				hasKeyword = true
			}
		}
		switch {
		case !st.setLive[si]:
			killed++
		case !hasPred:
			// Unconstrained on this table; nothing to select.
		case hasKeyword:
			if st.seededSetSelect(si, ti, stats) {
				return killed, true
			}
			if !st.setLive[si] {
				killed++
			}
		default:
			st.scanSets = append(st.scanSets, si)
		}
	}

	if len(st.scanSets) == 0 {
		return killed, false
	}

	// Shared scan: one pass over the rows answers every scan-shaped set.
	// Each set's checks occupy a range of st.checks; dictionary verdict
	// tables are built once per set×column and consulted by code.
	st.checks = st.checks[:0]
	st.scanRanges = st.scanRanges[:0]
	st.scanHits = st.scanHits[:0]
	for _, si := range st.scanSets {
		lo := len(st.checks)
		st.appendSetChecks(si, ti, t.numRows)
		st.scanRanges = append(st.scanRanges, [2]int{lo, len(st.checks)})
		st.scanHits = append(st.scanHits, 0)
		st.setBMs[si*nTabs+ti] = st.getBitmap(t.numRows)
	}
	// The shared scan walks the table block-at-a-time: each set's
	// exact-bounds checks are tested against the per-block zone maps, so a
	// set skips every block its bounds prove empty, and a block no live
	// set can match is never touched at all.
	st.scanActive = resizeBools(st.scanActive, len(st.scanSets), false)
	for b0 := 0; b0 < t.numRows; b0 += blockRows {
		anyActive := false
		for k := range st.scanSets {
			rng := st.scanRanges[k]
			st.scanActive[k] = !st.blockPruned(b0/blockRows, rng[0], rng[1])
			anyActive = anyActive || st.scanActive[k]
		}
		if !anyActive {
			stats.BlocksPruned++
			continue
		}
		end := int32(min(b0+blockRows, t.numRows))
		for id := int32(b0); id < end; id++ {
			if st.interrupt.Hit() {
				return killed, true
			}
			stats.RowsScanned++
			for k, si := range st.scanSets {
				if !st.scanActive[k] {
					continue
				}
				rng := st.scanRanges[k]
				if st.checkRange(id, rng[0], rng[1], stats) {
					st.setBMs[si*nTabs+ti].Add(id)
					st.scanHits[k]++
				}
			}
		}
	}
	for k, si := range st.scanSets {
		if st.scanHits[k] == 0 {
			st.setLive[si] = false
			st.setBMs[si*nTabs+ti] = nil
			killed++
		}
	}
	return killed, false
}

// seededSetSelect runs selectRows' keyword-seeded phases 2–3 for one set
// on one table: candidates from the keyword index (intersected across the
// set's keyword predicates), verified against all of the set's predicates
// into the set's verdict bitmap.
func (st *execState) seededSetSelect(si, ti int, stats *exec.ExecStats) (interrupted bool) {
	t := st.tabs[ti]
	nTabs := len(st.tabs)
	idSlot, ids := st.getIDs()
	var candidates []int32
	seeded := false
	scratchSlot := -1
	var scratch []int32
	for bi := range st.batchPreds {
		b := &st.batchPreds[bi]
		if b.set != si || b.bp.tab != ti || len(b.bp.cp.Keywords) == 0 {
			continue
		}
		col := t.cols[b.bp.ci]
		hitsBM := st.getBitmap(t.numRows)
		for _, kw := range b.bp.cp.Keywords {
			addKeywordHits(col, kw, hitsBM)
		}
		if !seeded {
			candidates = hitsBM.AppendTo(ids)
			seeded = true
			continue
		}
		if scratchSlot < 0 {
			scratchSlot, scratch = st.getIDs()
		}
		scratch = hitsBM.AppendTo(scratch[:0])
		st.keepIDs(scratchSlot, scratch)
		candidates = rowset.IntersectSorted(candidates[:0], candidates, scratch)
		if len(candidates) == 0 {
			break
		}
	}
	st.checks = st.checks[:0]
	st.appendSetChecks(si, ti, len(candidates))
	bm := st.getBitmap(t.numRows)
	out := candidates[:0]
	for _, id := range candidates {
		if st.interrupt.Hit() {
			st.keepIDs(idSlot, out)
			return true
		}
		if st.verifyRow(id, stats) {
			out = append(out, id)
			bm.Add(id)
		}
	}
	st.keepIDs(idSlot, out)
	if len(out) == 0 {
		st.setLive[si] = false
	} else {
		st.setBMs[si*nTabs+ti] = bm
	}
	return false
}

// appendSetChecks appends the checks of set si's predicates on table ti to
// st.checks: dictionary verdict tables whenever the column's dictionary is
// smaller than the number of rows to check, float fast paths for
// exact-bounds predicates, predicate closures otherwise.
func (st *execState) appendSetChecks(si, ti, toCheck int) {
	t := st.tabs[ti]
	for bi := range st.batchPreds {
		b := &st.batchPreds[bi]
		if b.set != si || b.bp.tab != ti {
			continue
		}
		st.checks = append(st.checks, newPredCheck(&b.bp.cp, t.cols[b.bp.ci], toCheck, st))
	}
}

// joinPipeline materialises the planned join (planLevels) column-at-a-time
// for the shared scan, its only caller — a single execution walks the same
// levels depth-first instead (execState.walk). Every pipeline row carries
// one uint64: bit si is set while the row is still compatible with set
// si's selections, and a row whose mask empties is dropped as it forms, so
// "mix" rows (combinations of different sets' selections that belong to no
// single set) never materialise. On return st.cur holds one row-id vector
// per level (a table's level is its slot, st.slotOf) and st.maskCur the
// masks of the nRows surviving rows.
func (st *execState) joinPipeline(opts exec.ExecOptions, stats *runStats) (int, error) {
	lv := st.levels
	st.cur = append(st.cur[:0], lv[0].list)
	nRows := st.maskStart(lv[0].tab, len(lv[0].list))
	nRows = st.filterResiduals(nRows, &lv[0])
	for d := 1; d < len(lv); d++ {
		l := &lv[d]
		probeVec := st.cur[l.probeLvl]

		// Probe the prebuilt join index of the new table's column into
		// fresh slot vectors; no hash table is built per execution and no
		// per-row tuple is allocated.
		st.next = st.next[:0]
		vecBase := st.vecUsed
		for s := 0; s <= d; s++ {
			_, v := st.getVec()
			st.next = append(st.next, v)
		}
		outRows := 0
		st.maskNext = st.maskNext[:0]
		for r := 0; r < nRows; r++ {
			if st.interrupt.Hit() {
				stats.hasPartial = true
				return 0, exec.ErrInterrupted
			}
			k := l.probeCol.key(probeVec[r])
			if k == "" {
				continue // NULL never joins
			}
			for _, rid := range l.buildCol.join[k] {
				if l.bm != nil && !l.bm.Contains(rid) {
					continue
				}
				// The joined row's mask is the probe row's mask restricted
				// to sets whose selection on the new table admits rid.
				m := st.maskCur[r] & st.rowMask(l.tab, rid)
				if m == 0 {
					continue
				}
				st.maskNext = append(st.maskNext, m)
				for s := 0; s < d; s++ {
					st.next[s] = append(st.next[s], st.cur[s][r])
				}
				st.next[d] = append(st.next[d], rid)
				outRows++
				if opts.MaxIntermediate > 0 && outRows > opts.MaxIntermediate {
					stats.AbortedTooLarge = true
					stats.hasPartial = true
					return 0, fmt.Errorf("colexec: intermediate result exceeded %d tuples", opts.MaxIntermediate)
				}
			}
		}
		for s := 0; s <= d; s++ {
			st.keepVec(vecBase+s, st.next[s])
		}
		st.cur = append(st.cur[:0], st.next...)
		st.maskCur, st.maskNext = st.maskNext, st.maskCur
		stats.JoinsExecuted++
		stats.IntermediateRows += outRows
		// Memory high-water mark of this join step: one int32 per slot
		// vector entry (d+1 vectors) plus the uint64 membership mask.
		if stepBytes := outRows * ((d+1)*4 + 8); stepBytes > stats.PeakIntermediateBytes {
			stats.PeakIntermediateBytes = stepBytes
		}
		nRows = st.filterResiduals(outRows, l)
	}
	return nRows, nil
}

// filterResiduals keeps the pipeline rows that satisfy the residual edges
// level l closes — equal, non-null values on both columns — writing the
// survivors of each edge into fresh slot vectors (the current ones may
// alias a read-only selection).
func (st *execState) filterResiduals(nRows int, l *joinLevel) int {
	for i := l.resLo; i < l.resHi; i++ {
		re := &st.residuals[i]
		lvec, rvec := st.cur[st.slotOf[re.lt]], st.cur[st.slotOf[re.rt]]
		width := len(st.cur)
		st.next = st.next[:0]
		vecBase := st.vecUsed
		for s := 0; s < width; s++ {
			_, v := st.getVec()
			st.next = append(st.next, v)
		}
		st.maskNext = st.maskNext[:0]
		for r := 0; r < nRows; r++ {
			lv := re.lc.value(lvec[r])
			if lv.IsNull() || !lv.Equal(re.rc.value(rvec[r])) {
				continue
			}
			for s := 0; s < width; s++ {
				st.next[s] = append(st.next[s], st.cur[s][r])
			}
			st.maskNext = append(st.maskNext, st.maskCur[r])
		}
		for s := 0; s < width; s++ {
			st.keepVec(vecBase+s, st.next[s])
		}
		st.cur = append(st.cur[:0], st.next...)
		st.maskCur, st.maskNext = st.maskNext, st.maskCur
		nRows = len(st.maskCur)
	}
	return nRows
}

// rowMask returns the membership mask of table ti's row id: bit si is set
// when set si is live and its selection on ti (nil = unconstrained)
// admits the row.
func (st *execState) rowMask(ti int, id int32) uint64 {
	nTabs := len(st.tabs)
	var m uint64
	for si := range st.setLive {
		if !st.setLive[si] {
			continue
		}
		if bm := st.setBMs[si*nTabs+ti]; bm != nil && !bm.Contains(id) {
			continue
		}
		m |= 1 << uint(si)
	}
	return m
}

// maskStart seeds the membership masks from the starting table's slot
// vector, compacting away rows no live set selected. It returns the
// surviving row count; st.cur[0] and st.maskCur stay aligned.
func (st *execState) maskStart(start, nRows int) int {
	slot, out := st.getVec()
	st.maskCur = st.maskCur[:0]
	src := st.cur[0]
	for r := 0; r < nRows; r++ {
		m := st.rowMask(start, src[r])
		if m == 0 {
			continue
		}
		out = append(out, src[r])
		st.maskCur = append(st.maskCur, m)
	}
	st.keepVec(slot, out)
	st.cur[0] = out
	return len(out)
}

// resizeBools returns s sized to n with every element set to v, reusing
// capacity so the warm batch path does not allocate.
func resizeBools(s []bool, n int, v bool) []bool {
	if cap(s) < n {
		s = make([]bool, n)
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = v
	}
	return s
}

// resizeBitmapRefs returns s sized to n with every slot nil, reusing
// capacity so the warm batch path does not allocate.
func resizeBitmapRefs(s []*rowset.Bitmap, n int) []*rowset.Bitmap {
	if cap(s) < n {
		s = make([]*rowset.Bitmap, n)
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = nil
	}
	return s
}
