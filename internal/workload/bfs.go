package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/config"
	"repro/internal/hmccmd"
	"repro/internal/packet"
	"repro/internal/sim"
)

// visitCmd is the CMC slot the hmc_visit demo operation binds to.
const visitCmd = hmccmd.CMC71

// Graph breadth-first search is the instruction-offloading case study the
// paper cites (§II [10]): replacing the check-and-update of the BFS inner
// loop with in-memory operations saves most of the kernel's bandwidth.
// Two modes are modeled over the same synthetic graph:
//
//   - BFSBaseline: per edge, the host reads the target vertex's visited
//     block and, when unvisited, writes the claim back — two round trips
//     and 6 FLITs per probed edge.
//   - BFSCMC: per edge, a single hmc_visit CMC operation (cmcops)
//     atomically claims the vertex — one round trip and 4 FLITs.
//
// The visited array lives in HMC memory as one 16-byte block per vertex
// (flag in bits [63:0], discovering level in [127:64]); the adjacency
// structure is host-side state, as in the offloading study.
type BFSMode int

// BFS modes.
const (
	BFSBaseline BFSMode = iota
	BFSCMC
)

// String names the mode.
func (m BFSMode) String() string {
	if m == BFSCMC {
		return "cmc"
	}
	return "baseline"
}

// Graph is a host-side adjacency list.
type Graph struct {
	// Adj[v] lists the neighbors of vertex v.
	Adj [][]uint32
}

// NewRandomGraph builds a connected undirected graph with n vertices and
// roughly degree extra edges per vertex, deterministically from seed.
func NewRandomGraph(n int, degree int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := &Graph{Adj: make([][]uint32, n)}
	addEdge := func(a, b uint32) {
		g.Adj[a] = append(g.Adj[a], b)
		g.Adj[b] = append(g.Adj[b], a)
	}
	// A random spanning tree guarantees connectivity...
	for v := 1; v < n; v++ {
		addEdge(uint32(rng.Intn(v)), uint32(v))
	}
	// ...plus extra random edges for realistic fan-out.
	for i := 0; i < n*degree/2; i++ {
		a, b := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if a != b {
			addEdge(a, b)
		}
	}
	return g
}

// Vertices returns the vertex count.
func (g *Graph) Vertices() int { return len(g.Adj) }

// Edges returns the directed edge count (each undirected edge twice).
func (g *Graph) Edges() int {
	n := 0
	for _, a := range g.Adj {
		n += len(a)
	}
	return n
}

// bfsWork is a shared frontier of edges to probe.
type bfsWork struct {
	graph       *Graph
	visitedBase uint64
	level       uint64
	frontier    []uint32 // vertices whose edges are being probed
	next        []uint32 // vertices claimed this level
	edgeQueue   []uint32 // targets remaining to probe this level
}

func (w *bfsWork) refill() bool {
	if len(w.edgeQueue) > 0 {
		return true
	}
	if len(w.next) > 0 {
		w.frontier, w.next = w.next, w.frontier[:0]
		w.level++
		for _, v := range w.frontier {
			w.edgeQueue = append(w.edgeQueue, w.graph.Adj[v]...)
		}
		return len(w.edgeQueue) > 0
	}
	return false
}

func (w *bfsWork) pop() (uint32, bool) {
	if !w.refill() {
		return 0, false
	}
	v := w.edgeQueue[0]
	w.edgeQueue = w.edgeQueue[1:]
	return v, true
}

// bfsState is a worker's position.
type bfsState int

const (
	bfsIdle bfsState = iota
	bfsWaitVisit
	bfsWaitRead
	bfsWriteReady
	bfsWaitWrite
)

// BFSAgent is one traversal worker sharing the level-synchronized work
// queue.
type BFSAgent struct {
	Mode BFSMode
	work *bfsWork

	state  bfsState
	target uint32
	// Probes counts edge probes; Claims counts vertices this worker
	// discovered.
	Probes, Claims uint64

	scratch sim.ReqScratch
}

// visitAddr returns the visited-block address of a vertex.
func (b *BFSAgent) visitAddr(v uint32) uint64 {
	return b.work.visitedBase + uint64(v)*16
}

// Next implements Agent.
func (b *BFSAgent) Next(cycle uint64) *packet.Rqst {
	switch b.state {
	case bfsIdle:
		v, ok := b.work.pop()
		if !ok {
			return nil
		}
		b.target = v
		b.Probes++
		if b.Mode == BFSCMC {
			b.state = bfsWaitVisit
			pl := b.scratch.Payload(2)
			pl[0], pl[1] = b.work.level, 0
			r, err := b.scratch.BuildCMC(visitCmd, 0, b.visitAddr(v), 0, 0, pl)
			if err != nil {
				panic(err)
			}
			return r
		}
		b.state = bfsWaitRead
		r, err := b.scratch.BuildRead(0, b.visitAddr(v), 0, 0, 16)
		if err != nil {
			panic(err)
		}
		return r
	case bfsWriteReady:
		b.state = bfsWaitWrite
		pl := b.scratch.Payload(2)
		pl[0], pl[1] = 1, b.work.level
		r, err := b.scratch.BuildWrite(0, b.visitAddr(b.target), 0, 0, pl, false)
		if err != nil {
			panic(err)
		}
		return r
	default:
		return nil
	}
}

// Complete implements Agent.
func (b *BFSAgent) Complete(rsp *packet.Rsp, cycle uint64) error {
	if rsp == nil || rsp.ERRSTAT != 0 {
		return fmt.Errorf("bfs op failed: %+v", rsp)
	}
	switch b.state {
	case bfsWaitVisit:
		if rsp.Payload[0] == 1 {
			b.Claims++
			b.work.next = append(b.work.next, b.target)
		}
		b.state = bfsIdle
	case bfsWaitRead:
		if rsp.Payload[0] == 0 {
			b.state = bfsWriteReady // unvisited: claim it
		} else {
			b.state = bfsIdle
		}
	case bfsWaitWrite:
		b.Claims++
		b.work.next = append(b.work.next, b.target)
		b.state = bfsIdle
	default:
		return fmt.Errorf("bfs response in state %d", b.state)
	}
	return nil
}

// Done implements Agent. A worker is done when the shared queue is
// exhausted and it holds no outstanding work.
func (b *BFSAgent) Done() bool {
	return b.state == bfsIdle && len(b.work.edgeQueue) == 0 && len(b.work.next) == 0
}

// BFSResult summarizes one traversal.
type BFSResult struct {
	Mode     BFSMode
	Threads  int
	Vertices int
	Edges    int
	// Visited is the number of vertices reached.
	Visited int
	// DoubleClaims counts vertices claimed more than once — the
	// correctness hazard of the baseline's non-atomic check-then-write,
	// which the CMC operation eliminates (always zero in CMC mode).
	DoubleClaims uint64
	// Cycles is the traversal duration.
	Cycles uint64
	// Probes is the number of edge probes issued.
	Probes uint64
	// Flits is the total link FLIT traffic of the probes.
	Flits uint64
}

// RunBFS traverses a random connected graph from vertex 0 and verifies
// that every vertex was visited exactly once.
func RunBFS(cfg config.Config, mode BFSMode, threads, vertices, degree int, seed int64, opts ...sim.Option) (BFSResult, error) {
	ss, err := NewSession(cfg, opts...)
	if err != nil {
		return BFSResult{}, err
	}
	return ss.BFS(mode, threads, vertices, degree, seed)
}

// BFS is the Session form of RunBFS. The hmc_visit operation loads on
// the first CMC-mode traversal and stays resident; baseline traversals
// on a session that ran CMC mode earlier still never touch it.
func (ss *Session) BFS(mode BFSMode, threads, vertices, degree int, seed int64) (BFSResult, error) {
	var cmcNames []string
	if mode == BFSCMC {
		cmcNames = []string{"hmc_visit"}
	}
	s, err := ss.begin(threads, cmcNames...)
	if err != nil {
		return BFSResult{}, err
	}
	graph := NewRandomGraph(vertices, degree, seed)
	work := &bfsWork{graph: graph, visitedBase: 0}

	// Seed the traversal: vertex 0 is pre-claimed at level 0.
	d, err := s.Device(0)
	if err != nil {
		return BFSResult{}, err
	}
	if err := d.Store().WriteUint64(0, 1); err != nil {
		return BFSResult{}, err
	}
	work.next = append(work.next, 0)

	agents := ss.agentSlice(threads)
	ss.bfss = grow(ss.bfss, threads)
	workers := ss.bfss
	for i := range workers {
		workers[i] = BFSAgent{Mode: mode, work: work}
		agents[i] = &workers[i]
	}
	res, err := ss.run(agents, 100_000_000)
	if err != nil {
		return BFSResult{}, err
	}

	// Every vertex must be visited exactly once (each claim is unique).
	visited := 0
	var claims uint64
	for v := 0; v < vertices; v++ {
		blk, err := d.Store().ReadBlock(uint64(v) * 16)
		if err != nil {
			return BFSResult{}, err
		}
		if blk.Lo != 0 {
			visited++
		}
	}
	var probes uint64
	for i := range workers {
		probes += workers[i].Probes
		claims += workers[i].Claims
	}
	if visited != vertices {
		return BFSResult{}, fmt.Errorf("%w: visited %d of %d vertices", ErrAgentFault, visited, vertices)
	}
	// The CMC visit is atomic: every vertex is claimed exactly once. The
	// baseline check-then-write can double-claim under concurrency; the
	// excess is reported rather than failed.
	if claims < uint64(vertices-1) {
		return BFSResult{}, fmt.Errorf("%w: only %d claims for %d vertices", ErrAgentFault, claims, vertices)
	}
	doubleClaims := claims - uint64(vertices-1)
	if mode == BFSCMC && doubleClaims != 0 {
		return BFSResult{}, fmt.Errorf("%w: atomic visit double-claimed %d vertices", ErrAgentFault, doubleClaims)
	}

	var flits uint64
	if mode == BFSCMC {
		flits = probes * 4 // hmc_visit: 2 rqst + 2 rsp
	} else {
		// Every probe reads (1+2); successful claims also write (2+1).
		flits = probes*3 + claims*3
	}
	return BFSResult{
		Mode:         mode,
		Threads:      threads,
		Vertices:     vertices,
		Edges:        graph.Edges(),
		Visited:      visited,
		DoubleClaims: doubleClaims,
		Cycles:       res.Cycles,
		Probes:       probes,
		Flits:        flits,
	}, nil
}
