package strategy

import (
	"testing"
	"testing/quick"

	"paradl/internal/model"
)

func TestPartitionDimCoverage(t *testing.T) {
	rs := PartitionDim(10, 4)
	if len(rs) != 4 {
		t.Fatalf("ranges %d", len(rs))
	}
	if rs[0].Start != 0 || rs[len(rs)-1].End != 10 {
		t.Fatalf("partition does not cover: %v", rs)
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Start != rs[i-1].End {
			t.Fatalf("gap between ranges %d and %d", i-1, i)
		}
	}
}

func TestPartitionDimProperty(t *testing.T) {
	f := func(extentRaw, pRaw uint8) bool {
		extent := int(extentRaw)
		p := int(pRaw%16) + 1
		rs := PartitionDim(extent, p)
		total := 0
		for _, r := range rs {
			if r.Size() < 0 {
				return false
			}
			total += r.Size()
		}
		return total == extent
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHybridGroupsStructure(t *testing.T) {
	groups, segments, err := HybridGroups(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 4 || len(segments) != 2 {
		t.Fatalf("groups %d segments %d", len(groups), len(segments))
	}
	// Group g holds PEs {2g, 2g+1}; segment k holds {k, 2+k, 4+k, 6+k}.
	if groups[1][0] != 2 || groups[1][1] != 3 {
		t.Fatalf("group 1 = %v", groups[1])
	}
	if segments[1][0] != 1 || segments[1][3] != 7 {
		t.Fatalf("segment 1 = %v", segments[1])
	}
	// Every PE appears exactly once in groups and once in segments.
	seen := map[int]int{}
	for _, g := range groups {
		for _, pe := range g {
			seen[pe]++
		}
	}
	for pe := 0; pe < 8; pe++ {
		if seen[pe] != 1 {
			t.Fatalf("PE %d appears %d times in groups", pe, seen[pe])
		}
	}
}

func TestHybridGroupsRejectsBadSplit(t *testing.T) {
	if _, _, err := HybridGroups(0, 4); err == nil {
		t.Fatal("p1=0 must be rejected")
	}
}

func TestMicroBatches(t *testing.T) {
	mb, err := MicroBatches(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, b := range mb {
		sum += b
	}
	if sum != 10 {
		t.Fatalf("micro batches %v do not sum to 10", mb)
	}
	if _, err := MicroBatches(3, 4); err == nil {
		t.Fatal("B<p1 must be rejected")
	}
}

func TestFilterShardsLimit(t *testing.T) {
	m := model.TinyCNN()
	var convIdx int
	for i := range m.Layers {
		if m.Layers[i].WeightSize() > 0 {
			convIdx = i
			break
		}
	}
	l := &m.Layers[convIdx] // F=8
	shards, err := FilterShards(l, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 4 || shards[3].End != l.F {
		t.Fatalf("shards %v", shards)
	}
	if _, err := FilterShards(l, l.F+1); err == nil {
		t.Fatal("p>F must be rejected")
	}
}

func TestChannelShardsLimit(t *testing.T) {
	m := model.TinyCNN()
	l := &m.Layers[0] // C=3
	if _, err := ChannelShards(l, 4); err == nil {
		t.Fatal("p>C must be rejected")
	}
	shards, err := ChannelShards(l, 3)
	if err != nil {
		t.Fatal(err)
	}
	if shards[2].End != 3 {
		t.Fatalf("shards %v", shards)
	}
}

func TestSpatialShards(t *testing.T) {
	shards, err := SpatialShards(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range shards {
		if r.Size() != 4 {
			t.Fatalf("uneven shards %v", shards)
		}
	}
	if _, err := SpatialShards(2, 4); err == nil {
		t.Fatal("extent<p must be rejected")
	}
}

func TestAllPEs(t *testing.T) {
	pes := AllPEs(4)
	for i, pe := range pes {
		if pe != i {
			t.Fatalf("AllPEs = %v", pes)
		}
	}
}

func TestContiguousStages(t *testing.T) {
	st := ContiguousStages([]Range{{0, 3}, {3, 7}})
	if len(st) != 2 || st[1].Start != 3 || st[1].PE != 1 {
		t.Fatalf("stages %v", st)
	}
}

// Limits names the binding limit: the model axis by the extent that
// bounds it on each row, then the data axis by the batch.
func TestGridLimitsByName(t *testing.T) {
	m := model.Tiny3D() // min F = 4, min C = 4, min extent 4³, G = 7
	for _, c := range []struct {
		g    Grid
		want string
	}{
		{Grid{Family: Tensor, P1: 2, P2: 4, B: 2}, ""},
		{Grid{Family: Tensor, P1: 1, P2: 8, B: 2}, "filter"},
		{Grid{Family: Tensor, P1: 1, P2: 8, B: 2, Channel: true}, "channel"},
		{Grid{Family: Spatial, P1: 1, P2: 4, B: 2}, ""},
		{Grid{Family: Spatial, P1: 1, P2: 128, B: 2}, "spatial"},
		{Grid{Family: Pipeline, P1: 1, P2: 8, B: 2}, "stage"},
		{Grid{Family: Pipeline, P1: 4, P2: 2, B: 2}, "batch"},
		{Grid{Family: Tensor, P1: 4, P2: 8, B: 2}, "filter"}, // model axis first
	} {
		c.g.Model = m
		got := ""
		if lim := c.g.Limits(); lim != nil {
			got = lim.Name
		}
		if got != c.want {
			t.Errorf("%dx%d B=%d: limit %q, want %q", c.g.P1, c.g.P2, c.g.B, got, c.want)
		}
	}
}

// Every row's exchanges address PEs of the P1×P2 grid, close their
// concurrent-segment sets, and mark only the spatial Allgatherv as
// outside Table 3.
func TestGridExchangesWellFormed(t *testing.T) {
	m := model.Tiny3D()
	for _, g := range []Grid{
		{Family: Tensor, P1: 2, P2: 2}, {Family: Tensor, P1: 4, P2: 1}, {Family: Tensor, P1: 1, P2: 4, Channel: true},
		{Family: Spatial, P1: 1, P2: 2}, {Family: Spatial, P1: 2, P2: 2, Hierarchical: true},
		{Family: Pipeline, P1: 1, P2: 2}, {Family: Pipeline, P1: 2, P2: 2, Whole: true},
	} {
		g.Model, g.Delta, g.B, g.S = m, 4, 8, 2
		g.Stages = []Range{{0, 3}, {3, m.G()}}
		n, open := 0, 0
		for x := range g.Exchanges {
			n++
			for _, pe := range x.PEs() {
				if pe < 0 || pe >= g.P1*g.P2 {
					t.Errorf("%+v: exchange %+v reaches PE %d", g, x, pe)
				}
			}
			if x.Segment != open || x.Repeat < 1 || x.Bytes < 0 {
				t.Errorf("%+v: malformed exchange %+v (segment %d expected)", g, x, open)
			}
			if open++; open == x.Segments {
				open = 0
			}
			if x.InTable3 == (x.Kind == RingAllgather) {
				t.Errorf("%+v: %+v: only the Allgatherv is outside Table 3", g, x)
			}
		}
		if n == 0 || open != 0 {
			t.Errorf("%+v: %d exchanges, %d segments left open", g, n, open)
		}
	}
}
