package grid

import (
	"fmt"
	"slices"
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
	finalized bool

	// Dense indices, assigned by Finalize: hosts by name order (HostIndex),
	// links by their position in Links().
	hostList []*Host
	hostIdx  map[string]int
	linkList []*Link

	// The route table, addressed by host index. Each host reads the row
	// of its attachment class: above maxExactRouteHosts, hosts attached
	// to the same link set share a row (one BFS per class instead of one
	// per host); at or below it every host has a row of its own.
	rowOf   []int       // host index -> row
	rows    [][][]*Link // row -> destination host index -> path
	rowLink [][]*Link   // row -> path between two distinct hosts of the row
}

// maxExactRouteHosts bounds the per-host route rows built by Finalize.
// Beyond it, hosts with the same attachment share one row — still
// minimum-hop and deterministic, but O(classes·nodes) instead of
// O(hosts·nodes), which is what makes 1000+-host topologies buildable.
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
		index:     -1,
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

// Finalize assigns the dense host and link indices and computes
// all-pairs routes. It must be called once, before the simulation
// advances, and panics if any host pair is unreachable. Small topologies
// (≤ maxExactRouteHosts hosts) run one BFS per host; larger ones one BFS
// per attachment class.
func (tp *Topology) Finalize() {
	if tp.finalized {
		panic("grid: Finalize called twice")
	}
	tp.linkList = tp.Links()
	for i, l := range tp.linkList {
		l.index = i
	}
	tp.hostList = tp.Hosts()
	tp.hostIdx = make(map[string]int, len(tp.hostList))
	for i, h := range tp.hostList {
		h.index = i
		tp.hostIdx[h.Name] = i
	}
	tp.finalized = true

	g := tp.nodeGraph()

	// Rows: one per host, or one per attachment class on large
	// topologies. A class's row is computed from its first host; every
	// member sees the network from the same point, and two members are
	// one shared segment apart — the lexically first attached link,
	// independent of which member represents the class.
	n := len(tp.hostList)
	tp.rowOf = make([]int, n)
	var reps []int
	if n <= maxExactRouteHosts {
		for i := range tp.hostList {
			tp.rowOf[i] = i
			reps = append(reps, i)
		}
	} else {
		classIdx := make(map[string]int)
		for i, h := range tp.hostList {
			ls := make([]string, len(tp.attach[h.Name]))
			for j, l := range tp.attach[h.Name] {
				ls[j] = l.Name
			}
			sort.Strings(ls)
			key := strings.Join(ls, "\x00")
			id, ok := classIdx[key]
			if !ok {
				id = len(reps)
				classIdx[key] = id
				reps = append(reps, i)
			}
			tp.rowOf[i] = id
		}
	}
	tp.rows = make([][][]*Link, len(reps))
	tp.rowLink = make([][]*Link, len(reps))
	for r, rep := range reps {
		name := tp.hostList[rep].Name
		att := append([]*Link(nil), tp.attach[name]...)
		sort.Slice(att, func(i, j int) bool { return att[i].Name < att[j].Name })
		if len(att) > 0 {
			tp.rowLink[r] = att[:1]
		}
		row := make([][]*Link, n)
		g.bfsTree(rep, row)
		for j, h := range tp.hostList {
			if j != rep && row[j] == nil {
				panic(fmt.Sprintf("grid: no route between %q and %q", name, h.Name))
			}
		}
		tp.rows[r] = row
	}
}

// nodeGraph is the bipartite node/link graph Finalize routes over, with
// every attached node (host or router) numbered once in name order.
// links[v] are node v's links in attach order and next[v][k] the
// members of links[v][k], in node order. The BFS scratch is reused by
// every row.
type nodeGraph struct {
	links    [][]*Link
	next     [][][]int
	hostNode []int // host index -> node, -1 when the host is unattached
	nodeHost []int // node -> host index, -1 for a router

	visited []bool
	parent  []int   // BFS parent node
	via     []*Link // link from the parent
	depth   []int
	queue   []int
}

func (tp *Topology) nodeGraph() *nodeGraph {
	names := make([]string, 0, len(tp.attach))
	for name := range tp.attach {
		names = append(names, name)
	}
	sort.Strings(names)
	nn := len(names)
	g := &nodeGraph{
		links: make([][]*Link, nn), next: make([][][]int, nn),
		hostNode: make([]int, len(tp.hostList)), nodeHost: make([]int, nn),
		visited: make([]bool, nn), parent: make([]int, nn), via: make([]*Link, nn),
		depth: make([]int, nn), queue: make([]int, 0, nn),
	}
	for i := range g.hostNode {
		g.hostNode[i] = -1
	}
	members := make(map[*Link][]int)
	for v, name := range names {
		g.nodeHost[v] = -1
		if i, ok := tp.hostIdx[name]; ok {
			g.nodeHost[v] = i
			g.hostNode[i] = v
		}
		g.links[v] = tp.attach[name]
		for _, l := range g.links[v] {
			members[l] = append(members[l], v)
		}
	}
	for v, ls := range g.links {
		g.next[v] = make([][]int, len(ls))
		for k, l := range ls {
			g.next[v][k] = members[l]
		}
	}
	return g
}

// bfsTree runs one minimum-hop BFS over the graph from host index from
// and writes the link path to every reachable host into row, by host
// index: nodes are expanded in queue order, links in attach order, and
// a node's path is fixed when it is first visited. The row's paths share
// one backing array, each capped at its own length.
func (g *nodeGraph) bfsTree(from int, row [][]*Link) {
	src := g.hostNode[from]
	if src < 0 {
		return
	}
	clear(g.visited)
	g.visited[src] = true
	g.depth[src] = 0
	queue := append(g.queue[:0], src)
	total := 0
	for q := 0; q < len(queue); q++ {
		cur := queue[q]
		for k, l := range g.links[cur] {
			for _, nx := range g.next[cur][k] {
				if g.visited[nx] {
					continue
				}
				g.visited[nx] = true
				g.parent[nx], g.via[nx], g.depth[nx] = cur, l, g.depth[cur]+1
				if g.nodeHost[nx] >= 0 {
					total += g.depth[nx]
				}
				queue = append(queue, nx)
			}
		}
	}
	g.queue = queue
	buf := make([]*Link, total)
	for _, v := range queue[1:] {
		j := g.nodeHost[v]
		if j < 0 {
			continue
		}
		d := g.depth[v]
		path := buf[:d:d]
		buf = buf[d:]
		for u := v; u != src; u = g.parent[u] {
			path[g.depth[u]-1] = g.via[u]
		}
		row[j] = path
	}
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

// Hosts returns all hosts sorted by name — after Finalize, in
// HostIndex order.
func (tp *Topology) Hosts() []*Host {
	if tp.finalized {
		return slices.Clone(tp.hostList)
	}
	out := make([]*Host, 0, len(tp.hosts))
	for _, name := range tp.HostNames() {
		out = append(out, tp.hosts[name])
	}
	return out
}

// NumHosts returns the number of dense host indices: len(Hosts()) after
// Finalize, 0 before. Every index HostIndex or IndexOf reports is below it.
func (tp *Topology) NumHosts() int { return len(tp.hostList) }

// HostNames returns all host names, sorted.
func (tp *Topology) HostNames() []string {
	names := make([]string, 0, len(tp.hosts))
	for n := range tp.hosts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Links returns all links sorted by name — after Finalize, in Link.Index
// order.
func (tp *Topology) Links() []*Link {
	if tp.finalized {
		return slices.Clone(tp.linkList)
	}
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

// HostIndex returns the named host's dense index — its position in
// Hosts() — or -1 for an unknown host or before Finalize.
func (tp *Topology) HostIndex(name string) int {
	if i, ok := tp.hostIdx[name]; ok {
		return i
	}
	return -1
}

// IndexOf returns h's dense index: the index Finalize stored on h when h
// is one of this topology's hosts, HostIndex(h.Name) otherwise.
func (tp *Topology) IndexOf(h *Host) int {
	if i := h.index; i >= 0 && i < len(tp.hostList) && tp.hostList[i] == h {
		return i
	}
	return tp.HostIndex(h.Name)
}

// RouteAt returns the link path between the hosts with dense indices i
// and j (nil if i == j). Both must be valid indices from HostIndex. The
// returned slice is shared; callers must not modify it.
func (tp *Topology) RouteAt(i, j int) []*Link {
	if i == j {
		return nil
	}
	r := tp.rowOf[i]
	if tp.rowOf[j] == r {
		return tp.rowLink[r]
	}
	return tp.rows[r][j]
}

// Route returns the link path from host a to host b (nil if a == b or
// either host is unknown).
func (tp *Topology) Route(a, b string) []*Link {
	if !tp.finalized {
		panic("grid: Route before Finalize")
	}
	i, j := tp.HostIndex(a), tp.HostIndex(b)
	if i < 0 || j < 0 {
		return nil
	}
	return tp.RouteAt(i, j)
}

// Send transfers sizeMB from host a to host b; done fires on completion.
// Same-host sends complete after a zero-length event (local copies are
// treated as free, matching the paper's cost model where C_i covers only
// network border exchange).
func (tp *Topology) Send(a, b string, sizeMB float64, done func()) {
	if a == b {
		tp.SendRoute(nil, sizeMB, done)
		return
	}
	route := tp.Route(a, b)
	if route == nil {
		panic(fmt.Sprintf("grid: Send between unrouted hosts %q -> %q", a, b))
	}
	tp.SendRoute(route, sizeMB, done)
}

// SendRoute is Send along a route resolved once with Route, for a caller
// that sends between the same hosts many times. An empty route is a
// same-host send.
func (tp *Topology) SendRoute(route []*Link, sizeMB float64, done func()) {
	if len(route) == 0 {
		if done == nil {
			done = func() {}
		}
		tp.Engine.Schedule(0, done)
		return
	}
	tp.net.send(route, sizeMB, done)
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
