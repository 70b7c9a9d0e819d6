package grid

import (
	"fmt"
	"sort"
	"strings"

	"apples/internal/load"
	"apples/internal/sim"
)

// Topology is the wired-up metacomputer: hosts and routers attached to
// shared links, with all-pairs routes computed by hop-count BFS.
//
// Build a topology with NewTopology and the Add/Attach calls, then call
// Finalize before simulating. The builders in testbeds.go construct the
// paper's configurations.
type Topology struct {
	Engine *sim.Engine

	hosts   map[string]*Host
	routers map[string]bool // attachment points that are not compute hosts
	links   map[string]*Link
	attach  map[string][]*Link // node name -> links it touches

	net       *network
	routes    map[[2]string][]*Link
	finalized bool

	// Large-topology route tables (built instead of `routes` when the
	// host count exceeds maxExactRouteHosts): hosts attached to the same
	// link set form an attachment class and share routes, so one BFS per
	// class replaces one per ordered pair.
	classOf     map[string]int       // host name -> attachment class
	classRoutes []map[string][]*Link // class -> destination host -> path
	classLinks  [][]*Link            // class -> single-segment intra-class path
}

// maxExactRouteHosts bounds the per-pair BFS precompute in Finalize.
// Beyond it, routes are derived from one BFS per attachment class —
// still minimum-hop and deterministic, but O(classes·nodes) instead of
// O(hosts²·nodes), which is what makes 1000+-host topologies buildable.
const maxExactRouteHosts = 64

// NewTopology returns an empty topology running on eng.
func NewTopology(eng *sim.Engine) *Topology {
	return &Topology{
		Engine:  eng,
		hosts:   make(map[string]*Host),
		routers: make(map[string]bool),
		links:   make(map[string]*Link),
		attach:  make(map[string][]*Link),
		net:     newNetwork(eng),
	}
}

// HostSpec declares a host for AddHost.
type HostSpec struct {
	Name      string
	Arch      string
	Site      string
	Speed     float64 // Mflop/s dedicated
	MemoryMB  float64
	Dedicated bool
	Features  []string
	Load      load.Source // nil means unloaded
}

// AddHost creates and registers a host.
func (tp *Topology) AddHost(spec HostSpec) *Host {
	if tp.finalized {
		panic("grid: AddHost after Finalize")
	}
	if _, dup := tp.hosts[spec.Name]; dup {
		panic(fmt.Sprintf("grid: duplicate host %q", spec.Name))
	}
	src := spec.Load
	if src == nil || spec.Dedicated {
		src = load.Constant(0)
	}
	h := &Host{
		Name:      spec.Name,
		Arch:      spec.Arch,
		Site:      spec.Site,
		Speed:     spec.Speed,
		MemoryMB:  spec.MemoryMB,
		Dedicated: spec.Dedicated,
		Features:  make(map[string]bool),
	}
	for _, f := range spec.Features {
		h.Features[f] = true
	}
	h.cpu = newCPU(tp.Engine, spec.Speed, src)
	tp.hosts[spec.Name] = h
	return h
}

// LinkSpec declares a shared link for AddLink.
type LinkSpec struct {
	Name         string
	Latency      float64 // seconds one-way
	Bandwidth    float64 // MB/s dedicated
	Dedicated    bool
	CrossTraffic load.Source // nil means no ambient traffic
}

// AddLink creates and registers a link (network segment).
func (tp *Topology) AddLink(spec LinkSpec) *Link {
	if tp.finalized {
		panic("grid: AddLink after Finalize")
	}
	if _, dup := tp.links[spec.Name]; dup {
		panic(fmt.Sprintf("grid: duplicate link %q", spec.Name))
	}
	src := spec.CrossTraffic
	if src == nil || spec.Dedicated {
		src = load.Constant(0)
	}
	l := &Link{
		Name:      spec.Name,
		Latency:   spec.Latency,
		Bandwidth: spec.Bandwidth,
		Dedicated: spec.Dedicated,
		src:       src,
	}
	tp.net.addLink(l)
	tp.links[spec.Name] = l
	return l
}

// AddRouter registers a non-compute attachment point (a gateway joining two
// segments, as between the PCL and SDSC in Figure 2).
func (tp *Topology) AddRouter(name string) {
	if tp.finalized {
		panic("grid: AddRouter after Finalize")
	}
	tp.routers[name] = true
}

// Attach connects a host or router (by name) to a link.
func (tp *Topology) Attach(node string, link *Link) {
	if tp.finalized {
		panic("grid: Attach after Finalize")
	}
	if _, ok := tp.hosts[node]; !ok && !tp.routers[node] {
		panic(fmt.Sprintf("grid: Attach of unknown node %q", node))
	}
	tp.attach[node] = append(tp.attach[node], link)
}

// Finalize computes all-pairs routes. It must be called once, before the
// simulation advances, and panics if any host pair is unreachable. Small
// topologies (≤ maxExactRouteHosts hosts) run one BFS per ordered pair;
// larger ones derive routes from one BFS per attachment class.
func (tp *Topology) Finalize() {
	if tp.finalized {
		panic("grid: Finalize called twice")
	}
	tp.finalized = true
	names := tp.HostNames()
	if len(names) > maxExactRouteHosts {
		tp.finalizeByClass(names)
		return
	}
	tp.routes = make(map[[2]string][]*Link)
	for _, a := range names {
		for _, b := range names {
			if a == b {
				continue
			}
			r := tp.bfsRoute(a, b)
			if r == nil {
				panic(fmt.Sprintf("grid: no route between %q and %q", a, b))
			}
			tp.routes[[2]string{a, b}] = r
		}
	}
}

// finalizeByClass builds the large-topology route tables: hosts with an
// identical attached-link set see the network from the same point, so a
// single BFS from one class representative yields the routes for every
// member. Same-class pairs are one shared segment apart; the path is the
// lexically first attached link, independent of which member represents
// the class.
func (tp *Topology) finalizeByClass(hosts []string) {
	// Link membership, hoisted out of the per-source BFS (deterministic
	// order: nodes sorted by name, links in attach order).
	members := make(map[*Link][]string)
	nodes := make([]string, 0, len(tp.attach))
	for n := range tp.attach {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		for _, l := range tp.attach[n] {
			members[l] = append(members[l], n)
		}
	}
	tp.classOf = make(map[string]int, len(hosts))
	classIdx := make(map[string]int)
	var reps []string
	for _, h := range hosts {
		ls := make([]string, len(tp.attach[h]))
		for i, l := range tp.attach[h] {
			ls[i] = l.Name
		}
		sort.Strings(ls)
		key := strings.Join(ls, "\x00")
		id, ok := classIdx[key]
		if !ok {
			id = len(reps)
			classIdx[key] = id
			reps = append(reps, h)
		}
		tp.classOf[h] = id
	}
	hostSet := make(map[string]bool, len(hosts))
	for _, h := range hosts {
		hostSet[h] = true
	}
	tp.classRoutes = make([]map[string][]*Link, len(reps))
	tp.classLinks = make([][]*Link, len(reps))
	for id, rep := range reps {
		att := append([]*Link(nil), tp.attach[rep]...)
		sort.Slice(att, func(i, j int) bool { return att[i].Name < att[j].Name })
		if len(att) > 0 {
			tp.classLinks[id] = att[:1]
		}
		tp.classRoutes[id] = tp.bfsTree(rep, members, hostSet)
		if len(tp.classRoutes[id])+1 < len(hosts) {
			for _, b := range hosts {
				if b != rep && tp.classRoutes[id][b] == nil {
					panic(fmt.Sprintf("grid: no route between %q and %q", rep, b))
				}
			}
		}
	}
}

// bfsTree runs one minimum-hop BFS from a source node and records the
// link path to every reachable host — the same traversal order as
// bfsRoute, but answering all destinations in one pass.
func (tp *Topology) bfsTree(from string, members map[*Link][]string, hostSet map[string]bool) map[string][]*Link {
	type state struct {
		node string
		path []*Link
	}
	out := make(map[string][]*Link)
	visited := map[string]bool{from: true}
	queue := []state{{node: from}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, l := range tp.attach[cur.node] {
			for _, next := range members[l] {
				if visited[next] {
					continue
				}
				visited[next] = true
				path := append(append([]*Link(nil), cur.path...), l)
				if hostSet[next] {
					out[next] = path
				}
				queue = append(queue, state{node: next, path: path})
			}
		}
	}
	return out
}

// bfsRoute finds the minimum-hop link path between two nodes via BFS over
// the bipartite node/link graph.
func (tp *Topology) bfsRoute(from, to string) []*Link {
	type state struct {
		node string
		path []*Link
	}
	visited := map[string]bool{from: true}
	queue := []state{{node: from}}
	// membership: link -> attached node names (deterministic order)
	members := make(map[*Link][]string)
	var nodes []string
	for n := range tp.attach {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		for _, l := range tp.attach[n] {
			members[l] = append(members[l], n)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, l := range tp.attach[cur.node] {
			for _, next := range members[l] {
				if visited[next] {
					continue
				}
				visited[next] = true
				path := append(append([]*Link(nil), cur.path...), l)
				if next == to {
					return path
				}
				queue = append(queue, state{node: next, path: path})
			}
		}
	}
	return nil
}

// SetHostTraces replaces the ambient load of the named hosts with
// explicit piecewise-constant traces (e.g. parsed from measured logs via
// load.ParseTrace). Call before the simulation advances so trace origins
// align with virtual time zero.
func (tp *Topology) SetHostTraces(traces map[string][]load.Step) error {
	for name, steps := range traces {
		h := tp.hosts[name]
		if h == nil {
			return fmt.Errorf("grid: trace for unknown host %q", name)
		}
		h.SetLoad(load.NewTrace(steps))
	}
	return nil
}

// SetLinkTraces replaces the cross traffic of the named links with
// explicit traces.
func (tp *Topology) SetLinkTraces(traces map[string][]load.Step) error {
	for name, steps := range traces {
		l := tp.links[name]
		if l == nil {
			return fmt.Errorf("grid: trace for unknown link %q", name)
		}
		l.SetCrossTraffic(load.NewTrace(steps))
	}
	return nil
}

// Host returns the named host, or nil.
func (tp *Topology) Host(name string) *Host { return tp.hosts[name] }

// Link returns the named link, or nil.
func (tp *Topology) Link(name string) *Link { return tp.links[name] }

// Hosts returns all hosts sorted by name.
func (tp *Topology) Hosts() []*Host {
	out := make([]*Host, 0, len(tp.hosts))
	for _, name := range tp.HostNames() {
		out = append(out, tp.hosts[name])
	}
	return out
}

// HostNames returns all host names, sorted.
func (tp *Topology) HostNames() []string {
	names := make([]string, 0, len(tp.hosts))
	for n := range tp.hosts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Links returns all links sorted by name.
func (tp *Topology) Links() []*Link {
	names := make([]string, 0, len(tp.links))
	for n := range tp.links {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Link, 0, len(names))
	for _, n := range names {
		out = append(out, tp.links[n])
	}
	return out
}

// Route returns the link path from host a to host b (nil if a == b).
func (tp *Topology) Route(a, b string) []*Link {
	if !tp.finalized {
		panic("grid: Route before Finalize")
	}
	if tp.routes != nil {
		return tp.routes[[2]string{a, b}]
	}
	if a == b {
		return nil
	}
	ca, ok := tp.classOf[a]
	if !ok {
		return nil
	}
	cb, ok := tp.classOf[b]
	if !ok {
		return nil
	}
	if ca == cb {
		return tp.classLinks[ca]
	}
	return tp.classRoutes[ca][b]
}

// Send transfers sizeMB from host a to host b; done fires on completion.
// Same-host sends complete after a zero-length event (local copies are
// treated as free, matching the paper's cost model where C_i covers only
// network border exchange).
func (tp *Topology) Send(a, b string, sizeMB float64, done func()) *Transfer {
	if a == b {
		return tp.SendRoute(nil, sizeMB, done)
	}
	route := tp.Route(a, b)
	if route == nil {
		panic(fmt.Sprintf("grid: Send between unrouted hosts %q -> %q", a, b))
	}
	return tp.SendRoute(route, sizeMB, done)
}

// SendRoute is Send along a route resolved once with Route, for a caller
// that sends between the same hosts many times. An empty route is a
// same-host send.
func (tp *Topology) SendRoute(route []*Link, sizeMB float64, done func()) *Transfer {
	if len(route) == 0 {
		t := &Transfer{}
		tp.Engine.Schedule(0, func() {
			t.finished = true
			if done != nil {
				done()
			}
		})
		return t
	}
	return tp.net.send(route, sizeMB, done)
}

// RouteLatency returns the summed one-way latency from a to b in seconds.
func (tp *Topology) RouteLatency(a, b string) float64 {
	if a == b {
		return 0
	}
	lat := 0.0
	for _, l := range tp.Route(a, b) {
		lat += l.Latency
	}
	return lat
}

// RouteBandwidth returns the current bottleneck available bandwidth (MB/s)
// a new transfer from a to b would see.
func (tp *Topology) RouteBandwidth(a, b string) float64 {
	if a == b {
		return inf()
	}
	bw := inf()
	for _, l := range tp.Route(a, b) {
		if v := l.AvailableBandwidth(); v < bw {
			bw = v
		}
	}
	return bw
}

// RouteDedicatedBandwidth returns the bottleneck bandwidth ignoring all
// contention — what a static, compile-time partitioner would assume.
func (tp *Topology) RouteDedicatedBandwidth(a, b string) float64 {
	if a == b {
		return inf()
	}
	bw := inf()
	for _, l := range tp.Route(a, b) {
		if l.Bandwidth < bw {
			bw = l.Bandwidth
		}
	}
	return bw
}

func inf() float64 { return 1e30 }
