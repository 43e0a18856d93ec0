package spec

import "math/bits"

// LaneVisits is the lockstep-engine form of VisitTracker and
// ConfinementTracker in one: it consumes per-node lane-occupancy words
// (bit l of occupied[v] = "some robot of lane l stands on node v") and
// maintains, per lane, exactly the quantities the scenario oracle reads —
// coverage, cover time, per-node revisit gaps, the visited-at-least-twice
// predicate, and the distinct-nodes-ever-visited count (which equals
// coverage: both are the cardinality of the ever-visited set).
//
// Most state is word-parallel (ever/twice/coverage words folded with
// OR/AND per node); only the revisit-gap bookkeeping iterates the set
// bits of each instant's occupancy, because gaps are genuinely per
// (node, lane) integers. Report(l, instants) reproduces the scalar
// VisitTracker.Report for lane l bit for bit — the differential tests in
// lanes_test.go drive both trackers with identical position streams and
// require equal reports.
type LaneVisits struct {
	n         int
	lastVisit []int32  // (node, lane) last visit instant, -1 if never; index v*64+l
	maxGap    []int32  // (node, lane) largest closed revisit gap
	ever      []uint64 // per node: lanes that ever visited it
	twice     []uint64 // per node: lanes that visited it at least twice
	complete  uint64   // lanes whose ever-set covers every node
	coverTime []int32  // per lane: first instant of full coverage
}

// NewLaneVisits creates a tracker; Reset arms it for a ring size.
func NewLaneVisits() *LaneVisits { return &LaneVisits{} }

// Reset re-arms the tracker for a fresh lockstep run over an n-node
// ring, reusing its backing storage — the pooling hook mirroring
// VisitTracker.Reset.
func (lv *LaneVisits) Reset(n int) {
	lv.n = n
	lv.lastVisit = resizeInt32s(lv.lastVisit, n*64)
	lv.maxGap = resizeInt32s(lv.maxGap, n*64)
	lv.ever = resizeWords(lv.ever, n)
	lv.twice = resizeWords(lv.twice, n)
	lv.complete = 0
	if lv.coverTime == nil {
		lv.coverTime = make([]int32, 64)
	}
	for i := range lv.lastVisit {
		lv.lastVisit[i] = -1
		lv.maxGap[i] = 0
	}
	for v := 0; v < n; v++ {
		lv.ever[v] = 0
		lv.twice[v] = 0
	}
	for l := range lv.coverTime {
		lv.coverTime[l] = -1
	}
}

func resizeInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func resizeWords(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// Record folds the configuration of instant t into the tracker for every
// lane whose bit is set in mask (retired lanes pass mask 0 bits and are
// untouched). Instants must arrive in increasing order per lane, starting
// with the initial configuration at t = 0 — the same stream the scalar
// trackers observe via Before/After snapshots.
func (lv *LaneVisits) Record(t int, occupied []uint64, mask uint64) {
	if mask == 0 {
		return
	}
	t32 := int32(t)
	andAcc := ^uint64(0)
	for v := 0; v < lv.n; v++ {
		w := occupied[v] & mask
		if w != 0 {
			ever := lv.ever[v]
			// First visits: the wait from the start of the execution
			// counts as a gap (a node first visited at t waited t
			// instants). Repeat visits close a (t - lastVisit) gap and
			// certify the second visit.
			lv.twice[v] |= w & ever
			base := v << 6
			for b := w; b != 0; b &= b - 1 {
				l := bits.TrailingZeros64(b)
				idx := base + l
				if ever&(1<<uint(l)) == 0 {
					if t32 > lv.maxGap[idx] {
						lv.maxGap[idx] = t32
					}
				} else if g := t32 - lv.lastVisit[idx]; g > lv.maxGap[idx] {
					lv.maxGap[idx] = g
				}
				lv.lastVisit[idx] = t32
			}
			lv.ever[v] = ever | w
		}
		andAcc &= lv.ever[v]
	}
	// Lanes that just reached full coverage record this instant as their
	// cover time.
	newly := andAcc & mask &^ lv.complete
	for b := newly; b != 0; b &= b - 1 {
		lv.coverTime[bits.TrailingZeros64(b)] = t32
	}
	lv.complete |= newly
}

// Report summarizes lane l over the given number of observed instants,
// reproducing VisitTracker.Report for that lane exactly: open gaps reach
// the horizon, never-visited nodes count a full-horizon gap, and the
// worst node is the first one attaining the maximal gap in ascending
// node order.
//
// Visits is not materialized per node — per-lane exact counts are not
// tracked. It is nil when every node was visited at least twice (so
// MinVisits returns the horizon, ≥ 2 for any run of at least one round)
// and the single element {1} otherwise: exactly the information
// ExploreViolation's minVisits=2 threshold consumes, with the same
// rendered message (a covered node with fewer than two visits has
// exactly one).
func (lv *LaneVisits) Report(l, instants int) ExplorationReport {
	bit := uint64(1) << uint(l)
	rep := ExplorationReport{Nodes: lv.n, Horizon: instants, CoverTime: -1}
	if lv.complete&bit != 0 {
		rep.CoverTime = int(lv.coverTime[l])
	}
	allTwice := true
	for v := 0; v < lv.n; v++ {
		idx := v<<6 + l
		gap := int(lv.maxGap[idx])
		if lv.ever[v]&bit == 0 {
			gap = instants
			allTwice = false
		} else {
			rep.Covered++
			if lv.twice[v]&bit == 0 {
				allTwice = false
			}
			if open := instants - 1 - int(lv.lastVisit[idx]); open > gap {
				gap = open
			}
		}
		if gap > rep.MaxGap {
			rep.MaxGap = gap
			rep.WorstNode = v
		}
	}
	if !allTwice {
		rep.Visits = []int{1}
	}
	return rep
}
