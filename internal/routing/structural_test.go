package routing

import (
	"math/rand"
	"testing"

	"repro/internal/topology"
)

// structuralGraphs are small host-and-core topologies the structural
// router must handle; small enough that exhaustive all-pairs
// verification against the dense BFS table is cheap.
func structuralGraphs(t *testing.T) map[string]*topology.Graph {
	t.Helper()
	star, err := topology.Star(40)
	if err != nil {
		t.Fatal(err)
	}
	hg, _, _, err := topology.Hierarchical(topology.HierarchicalConfig{
		Backbones: 2, EdgesPer: 4, HostsPerSubnet: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	tl, _, _, err := topology.TwoLevel(topology.TwoLevelConfig{
		ASes: 24, AttachM: 2, TransitFraction: 0.25, HostsPerStub: 8,
	}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	tl3, _, _, err := topology.TwoLevel(topology.TwoLevelConfig{
		ASes: 24, AttachM: 3, TransitFraction: 0.25, HostsPerStub: 8,
	}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	// An m=1 preferential-attachment tree: most nodes are degree-1
	// leaves, so it qualifies even without an explicit host tier.
	ba1, err := topology.BarabasiAlbert(150, 1, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*topology.Graph{
		"star": star, "hierarchical": hg, "twolevel": tl, "twolevel-m3": tl3, "ba-m1": ba1,
	}
}

// TestStructuralMatchesDense: every structural next hop must be the
// very directed link the dense hop table stores — equal-length
// tie-breaks included — and every structural route must reach its
// destination in the shortest-path hop count. Both tables break ties
// by a BFS from the destination in neighbor insertion order, and a
// host is a BFS leaf, so it never changes the order in which the core
// is discovered.
func TestStructuralMatchesDense(t *testing.T) {
	for name, g := range structuralGraphs(t) {
		t.Run(name, func(t *testing.T) {
			links := EnumerateLinks(g)
			s := NewStructural(g, links)
			if s == nil {
				t.Fatalf("%s: NewStructural returned nil for a qualifying graph", name)
			}
			if s.Hosts()+s.Core() != g.N() {
				t.Fatalf("hosts %d + core %d != n %d", s.Hosts(), s.Core(), g.N())
			}
			tab := Build(g)
			hop := links.HopTable(tab)
			n := g.N()
			for u := 0; u < n; u++ {
				if s.HopLink(u, u) != -1 {
					t.Fatalf("HopLink(%d,%d) = %d, want -1", u, u, s.HopLink(u, u))
				}
				for d := 0; d < n; d++ {
					if got, want := s.HopLink(u, d), hop[u*n+d]; got != want {
						t.Fatalf("HopLink(%d,%d) = %d, dense table has %d", u, d, got, want)
					}
					if d == u {
						continue
					}
					at, hops := u, 0
					for at != d {
						li := s.HopLink(at, d)
						if li < 0 {
							t.Fatalf("route %d->%d: stuck at %d after %d hops", u, d, at, hops)
						}
						if links.From(int(li)) != at {
							t.Fatalf("route %d->%d: hop link %d starts at %d, not %d",
								u, d, li, links.From(int(li)), at)
						}
						at = links.To(int(li))
						hops++
						if hops > n {
							t.Fatalf("route %d->%d: did not terminate", u, d)
						}
					}
					if want := tab.Dist(u, d); hops != want {
						t.Fatalf("route %d->%d: %d hops, shortest path has %d", u, d, hops, want)
					}
				}
			}
		})
	}
}

// TestStructuralPackedMatchesLegacy: on connected cores the
// bit-packed slot columns must decode to exactly the directed links
// the legacy dense int32 table stores — not merely equal-length
// routes. The engine's golden series pin byte-identical output, so the
// packed representation may not even change tie-breaks.
func TestStructuralPackedMatchesLegacy(t *testing.T) {
	for name, g := range structuralGraphs(t) {
		t.Run(name, func(t *testing.T) {
			links := EnumerateLinks(g)
			s := NewStructural(g, links)
			if s == nil {
				t.Fatalf("%s: NewStructural returned nil", name)
			}
			if !s.Packed() {
				t.Fatalf("%s: connected core should use the packed table", name)
			}
			legacy := *s
			legacy.hopBits = nil
			legacy.buildLegacy()
			n := g.N()
			for u := 0; u < n; u++ {
				for d := 0; d < n; d++ {
					if got, want := s.HopLink(u, d), legacy.HopLink(u, d); got != want {
						t.Fatalf("HopLink(%d,%d) packed %d, legacy %d", u, d, got, want)
					}
				}
			}
			if dense := 4 * s.Core() * s.Core(); s.Core() > 8 && s.CoreTableBytes() >= dense {
				t.Errorf("packed core table %d B not smaller than dense %d B",
					s.CoreTableBytes(), dense)
			}
		})
	}
}

// TestStructuralDisconnectedCoreFallsBack: a core split into two
// components has unreachable pairs, which the packed columns cannot
// represent — the dense int32 fallback with its -1 sentinel must kick
// in, and cross-component routes must report unreachable.
func TestStructuralDisconnectedCoreFallsBack(t *testing.T) {
	// Two disjoint stars: hubs 0 and 1, hosts 2-7 on hub 0, 8-13 on
	// hub 1. 12 of 14 nodes are degree-1 hosts, so it qualifies.
	g := topology.New(14)
	for h := 2; h < 8; h++ {
		if err := g.AddEdge(0, h); err != nil {
			t.Fatal(err)
		}
	}
	for h := 8; h < 14; h++ {
		if err := g.AddEdge(1, h); err != nil {
			t.Fatal(err)
		}
	}
	links := EnumerateLinks(g)
	s := NewStructural(g, links)
	if s == nil {
		t.Fatal("NewStructural returned nil for a host-majority graph")
	}
	if s.Packed() {
		t.Fatal("disconnected core must fall back to the dense table")
	}
	if li := s.HopLink(0, 1); li != -1 {
		t.Errorf("cross-component HopLink(0,1) = %d, want -1", li)
	}
	// Within a component, routes still work: host 2 -> host 7 via hub 0.
	li := s.HopLink(2, 7)
	if li < 0 || links.To(int(li)) != 0 {
		t.Errorf("HopLink(2,7) = %d, want uplink to hub 0", li)
	}
	if li := s.HopLink(0, 7); li < 0 || links.To(int(li)) != 7 {
		t.Errorf("HopLink(0,7) = %d, want direct link to host 7", li)
	}
}

// TestStructuralRejectsDenseCoreGraphs: graphs without a degree-1 host
// majority must fall back to the dense table (NewStructural returns
// nil) — structural routing would pay O(core²) for nothing.
func TestStructuralRejectsDenseCoreGraphs(t *testing.T) {
	g, err := topology.BarabasiAlbert(120, 2, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if s := NewStructural(g, EnumerateLinks(g)); s != nil {
		t.Fatalf("NewStructural accepted an m=2 power-law graph (hosts %d of %d)",
			s.Hosts(), g.N())
	}
}
