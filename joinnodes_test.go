package tsq

import (
	"testing"

	"tsq/internal/datagen"
)

// TestSelfJoinNodeCounts guards the node count of an in-memory self-join
// (Query 2) on the packed tree, which no workload measures: the first
// 3 000 of 20 000 random walks (seed 1, 4 KiB pages) joined at ρ 0.995
// under Identity and under MV(10..25). The ceilings are the counts of the
// distance-unit STR tiles that first read them; the Identity one is
// higher than the equal-slab tiles' 1 523, a regression the join's
// node-pair bound has to win back, which this test holds from growing.
func TestSelfJoinNodeCounts(t *testing.T) {
	const n = 128
	ss := datagen.RandomWalks(1, 20000, n)[:3000]
	db, err := Open(ss, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		ts    []Transform
		nodes int
	}{
		{"identity", []Transform{Identity(n)}, 1623},
		{"MV(10..25)", MovingAverages(n, 10, 25), 1689},
	} {
		ms, st, err := db.Join(tc.ts, Correlation(0.995), QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d nodes, %d candidates, %d matches", tc.name, st.DAAll, st.Candidates, len(ms))
		if st.Candidates == 0 {
			t.Errorf("%s: no candidate pairs; the test is vacuous", tc.name)
		}
		if st.DAAll > tc.nodes {
			t.Errorf("%s: the self-join read %d nodes, more than %d", tc.name, st.DAAll, tc.nodes)
		}
	}
}
