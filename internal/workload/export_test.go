package workload

// MemoEntries reports how many per-query plan times the DSS estimator's
// current memo holds (0 for any other estimator or before the first
// Estimate). It exists for the external tests of this package only.
func MemoEntries(est Estimator) int {
	e, ok := est.(*dssEstimator)
	if !ok {
		return 0
	}
	memo := e.memo.Load()
	if memo == nil {
		return 0
	}
	n := 0
	for i := range memo.queries {
		qm := &memo.queries[i]
		for j := range qm.dense {
			if qm.dense[j].Load() != 0 {
				n++
			}
		}
		qm.mu.RLock()
		n += len(qm.sparse)
		qm.mu.RUnlock()
	}
	return n
}
