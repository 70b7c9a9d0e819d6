package grid

import (
	"slices"
	"sort"
	"testing"

	"apples/internal/sim"
)

// bfsOracle answers minimum-hop routes the way a per-pair BFS over the
// bipartite node/link graph does — nodes expanded in queue order, each
// node's links in attach order, each link's members in name order, a
// node's path fixed when it is first visited — but records parent
// pointers instead of copying paths, so it shares no code with the
// topology's route table. from runs the BFS for one source; route then
// answers bfsRoute(source, b) for any b.
type bfsOracle struct {
	tp      *Topology
	id      map[string]int  // node name -> node id (name order)
	attach  [][]*Link       // node id -> attached links
	members map[*Link][]int // link -> member node ids (name order)
	prev    []int           // node id -> BFS parent (-1: unvisited)
	via     []*Link         // node id -> link to the parent
}

func newBFSOracle(tp *Topology) *bfsOracle {
	nodes := make([]string, 0, len(tp.attach))
	for n := range tp.attach {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	o := &bfsOracle{tp: tp, id: make(map[string]int), members: make(map[*Link][]int),
		prev: make([]int, len(nodes)), via: make([]*Link, len(nodes))}
	for i, n := range nodes {
		o.id[n] = i
		o.attach = append(o.attach, tp.attach[n])
		for _, l := range tp.attach[n] {
			o.members[l] = append(o.members[l], i)
		}
	}
	return o
}

// from runs the BFS from host a.
func (o *bfsOracle) from(a string) {
	for i := range o.prev {
		o.prev[i] = -1
	}
	src := o.id[a]
	o.prev[src] = src
	queue := []int{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, l := range o.attach[cur] {
			for _, next := range o.members[l] {
				if o.prev[next] >= 0 {
					continue
				}
				o.prev[next], o.via[next] = cur, l
				queue = append(queue, next)
			}
		}
	}
}

// route returns the path from the last source to host b (nil when b is
// the source or unreachable).
func (o *bfsOracle) route(b string) []*Link {
	var path []*Link
	n, ok := o.id[b]
	if !ok || o.prev[n] < 0 {
		return nil
	}
	for o.prev[n] != n {
		path = append(path, o.via[n])
		n = o.prev[n]
	}
	slices.Reverse(path)
	return path
}

// TestRouteTableMatchesBFS pins the dense route table to per-pair BFS
// link for link, for every ordered host pair: on the SDSC/PCL testbed
// (one table row per host) and on a 2048-host cluster of clusters (one
// row per attachment class).
func TestRouteTableMatchesBFS(t *testing.T) {
	for _, tc := range []struct {
		name string
		tp   *Topology
	}{
		{"sdscpcl", SDSCPCL(sim.NewEngine(), TestbedOptions{Seed: 1})},
		{"cluster-128x16", ClusterOfClusters(sim.NewEngine(), ClusterOptions{Clusters: 128, PerCluster: 16, Seed: 7, Quiet: true})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tp := tc.tp
			o := newBFSOracle(tp)
			names := tp.HostNames()
			for i, a := range names {
				if got := tp.HostIndex(a); got != i {
					t.Fatalf("HostIndex(%q) = %d, want %d (name order)", a, got, i)
				}
				o.from(a)
				for j, b := range names {
					got := tp.RouteAt(i, j)
					if want := o.route(b); !slices.Equal(got, want) {
						t.Fatalf("RouteAt(%s, %s) = %v, want %v", a, b, got, want)
					}
					if a != b && len(got) == 0 {
						t.Fatalf("no route between %s and %s", a, b)
					}
				}
			}
			for i, l := range tp.Links() {
				if l.Index() != i {
					t.Fatalf("link %s has index %d, want its position %d in Links()", l.Name, l.Index(), i)
				}
			}
			if tp.HostIndex("no-such-host") != -1 || tp.Route(names[0], "no-such-host") != nil {
				t.Fatal("an unknown host must have no index and no route")
			}
		})
	}
}
