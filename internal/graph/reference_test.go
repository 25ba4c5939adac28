package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mtracecheck/internal/mcm"
	"mtracecheck/internal/prog"
	"mtracecheck/internal/testgen"
)

// refDynamicEdges is the map-and-comparison-sort edge construction the
// dense tables and the counting sort replaced, kept as the reference
// oracle. It derives its own-store maps from the program directly, looks
// operations up with prog.OpByID, and sorts with a generic comparison sort,
// so it shares no table or sorting code with Builder. IDs must be in range.
func refDynamicEdges(p *prog.Program, opts Options, rf RF, ws WS) ([]Edge, error) {
	lastOwnStore := map[int]int{}
	nextOwnStore := map[int]int{}
	firstStores := map[int][]int{}
	for _, th := range p.Threads {
		latest := map[int]int{}
		for _, op := range th.Ops {
			switch op.Kind {
			case prog.Load:
				if st, ok := latest[op.Word]; ok {
					lastOwnStore[op.ID] = st
				}
			case prog.Store:
				if st, ok := latest[op.Word]; ok {
					nextOwnStore[st] = op.ID
				} else {
					firstStores[op.Word] = append(firstStores[op.Word], op.ID)
				}
				latest[op.Word] = op.ID
			}
		}
	}
	observed := opts.WS == WSObserved
	var edges []Edge
	wsPos := map[int]int{}
	if observed {
		for _, stores := range ws {
			for i, s := range stores {
				wsPos[s] = i
				if i > 0 {
					edges = append(edges, Edge{int32(stores[i-1]), int32(s)})
				}
			}
		}
	}
	for loadID, storeID := range rf {
		load := p.OpByID(loadID)
		if load.Kind != prog.Load {
			return nil, fmt.Errorf("rf references non-load op %d", loadID)
		}
		own, hasOwn := lastOwnStore[loadID]
		if storeID < 0 {
			switch {
			case opts.DropFR:
			case observed:
				if chain := ws[load.Word]; len(chain) > 0 {
					edges = append(edges, Edge{int32(loadID), int32(chain[0])})
				}
			default:
				for _, st := range firstStores[load.Word] {
					edges = append(edges, Edge{int32(loadID), int32(st)})
				}
			}
			if hasOwn && opts.Forwarding {
				edges = append(edges, Edge{int32(own), int32(loadID)})
			}
			continue
		}
		st := p.OpByID(storeID)
		if st.Kind != prog.Store || st.Word != load.Word {
			return nil, fmt.Errorf("rf store %d incompatible with load %d", storeID, loadID)
		}
		if st.Thread != load.Thread || !opts.Forwarding {
			edges = append(edges, Edge{int32(storeID), int32(loadID)})
		}
		if opts.Forwarding && hasOwn && own != storeID {
			edges = append(edges, Edge{int32(own), int32(loadID)})
		}
		if opts.DropFR {
			continue
		}
		if observed {
			pos, ok := wsPos[storeID]
			if !ok {
				return nil, fmt.Errorf("rf store %d missing from ws", storeID)
			}
			if chain := ws[load.Word]; pos+1 < len(chain) {
				edges = append(edges, Edge{int32(loadID), int32(chain[pos+1])})
			}
		} else if next, ok := nextOwnStore[storeID]; ok {
			edges = append(edges, Edge{int32(loadID), int32(next)})
		}
	}
	slices.SortFunc(edges, func(a, b Edge) int {
		if a.U != b.U {
			return int(a.U) - int(b.U)
		}
		return int(a.V) - int(b.V)
	})
	return slices.Compact(edges), nil
}

// chooser draws an execution's choices from fuzz bytes while they last,
// then from a seeded generator, so the fuzzer can steer individual
// reads-from and coherence choices.
type chooser struct {
	data []byte
	rng  *rand.Rand
}

func (c *chooser) intn(n int) int {
	if len(c.data) > 0 {
		v := int(c.data[0]) % n
		c.data = c.data[1:]
		return v
	}
	return c.rng.Intn(n)
}

// refProgram generates a program of at most 6 threads from shape bits:
// thread count, ops per thread, words, words per line and fences.
func refProgram(shape uint32, seed int64) *prog.Program {
	wpl := []int{1, 2, 4}[(shape>>12)%3]
	fences := 0.0
	if shape&(1<<14) != 0 {
		fences = 0.15
	}
	return testgen.MustGenerate(testgen.Config{
		Threads:      1 + int(shape%6),
		OpsPerThread: 1 + int((shape>>3)%24),
		Words:        1 + int((shape>>8)%8),
		WordsPerLine: wpl,
		FenceProb:    fences,
		Seed:         seed,
	})
}

// refExec fabricates an execution: each load reads the initial value or any
// store to its word, and each word's coherence order is a random
// permutation of its stores. Returned as the RF map, the equivalent dense
// slice, and the WS map.
func refExec(p *prog.Program, c *chooser) (RF, []int32, WS) {
	ws := WS{}
	for w := 0; w < p.NumWords; w++ {
		stores := p.StoresToWord(w)
		order := make([]int, len(stores))
		for i := range order {
			order[i] = stores[i].ID
		}
		for i := len(order) - 1; i > 0; i-- {
			j := c.intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		if len(order) > 0 {
			ws[w] = order
		}
	}
	rf := RF{}
	dense := make([]int32, p.NumOps())
	for i := range dense {
		dense[i] = -1
	}
	for _, op := range p.Ops() {
		if op.Kind != prog.Load {
			continue
		}
		chain := ws[op.Word]
		src := -1
		if k := c.intn(len(chain) + 1); k < len(chain) {
			src = chain[k]
		}
		rf[op.ID] = src
		dense[op.ID] = int32(src)
	}
	return rf, dense, ws
}

// diffAgainstReference builds one execution's edges through both entry
// points (the dense one also behind a non-empty prefix) and compares each
// with refDynamicEdges.
func diffAgainstReference(t *testing.T, p *prog.Program, model mcm.Model, opts Options, rf RF, dense []int32, ws WS) {
	t.Helper()
	want, err := refDynamicEdges(p, opts, rf, ws)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	b := NewBuilder(p, model, opts)
	got, err := b.DynamicEdges(rf, ws)
	if err != nil {
		t.Fatalf("%v %+v: DynamicEdges: %v", model, opts, err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%v %+v: DynamicEdges\n got %v\nwant %v", model, opts, got, want)
	}
	got, err = b.AppendDynamicEdges(nil, dense, ws)
	if err != nil {
		t.Fatalf("%v %+v: AppendDynamicEdges: %v", model, opts, err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%v %+v: AppendDynamicEdges\n got %v\nwant %v", model, opts, got, want)
	}
	prefix := []Edge{{7, 7}, {0, 0}}
	got, err = b.AppendDynamicEdges(prefix, dense, ws)
	if err != nil {
		t.Fatalf("%v %+v: AppendDynamicEdges with prefix: %v", model, opts, err)
	}
	if !slices.Equal(got[:2], prefix) || !slices.Equal(got[2:], want) {
		t.Fatalf("%v %+v: AppendDynamicEdges with prefix\n got %v\nwant %v + %v", model, opts, got, prefix, want)
	}
}

// refModes is every model × Forwarding × DropFR × WS mode combination.
func refModes() (models []mcm.Model, opts []Options) {
	for _, fwd := range []bool{false, true} {
		for _, drop := range []bool{false, true} {
			for _, mode := range []WSMode{WSStatic, WSObserved} {
				opts = append(opts, Options{Forwarding: fwd, DropFR: drop, WS: mode})
			}
		}
	}
	return []mcm.Model{mcm.SC, mcm.TSO, mcm.PSO, mcm.RMO}, opts
}

// TestDynamicEdgesMatchReference pins the dense-table construction and the
// counting sort to the reference oracle on random programs and executions
// under every model and edge mode.
func TestDynamicEdgesMatchReference(t *testing.T) {
	models, optsList := refModes()
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 40; i++ {
		p := refProgram(rng.Uint32(), int64(i))
		c := &chooser{rng: rng}
		for exec := 0; exec < 3; exec++ {
			rf, dense, ws := refExec(p, c)
			for _, model := range models {
				for _, opts := range optsList {
					diffAgainstReference(t, p, model, opts, rf, dense, ws)
				}
			}
		}
	}
}

// FuzzDynamicEdges explores the same space with fuzz-chosen program shapes,
// modes and execution choices.
func FuzzDynamicEdges(f *testing.F) {
	for i := uint32(0); i < 16; i++ {
		f.Add(i*0x9e3779b9, int64(i), uint8(i), []byte{byte(i), 3, 1, 4, 1, 5})
	}
	models, optsList := refModes()
	f.Fuzz(func(t *testing.T, shape uint32, seed int64, mode uint8, picks []byte) {
		p := refProgram(shape, seed)
		rf, dense, ws := refExec(p, &chooser{data: picks, rng: rand.New(rand.NewSource(seed))})
		model := models[int(mode)%len(models)]
		opts := optsList[int(mode/4)%len(optsList)]
		diffAgainstReference(t, p, model, opts, rf, dense, ws)
	})
}

// TestDynamicEdgesConcurrent: decode workers share one Builder, and with it
// the scratch pool; concurrent calls must each get their own scratch and
// the serial result.
func TestDynamicEdgesConcurrent(t *testing.T) {
	p := refProgram(4|20<<3|7<<8|2<<12, 3)
	b := NewBuilder(p, mcm.TSO, Options{Forwarding: true, WS: WSObserved})
	c := &chooser{rng: rand.New(rand.NewSource(3))}
	type exec struct {
		dense []int32
		ws    WS
		want  []Edge
	}
	execs := make([]exec, 16)
	for i := range execs {
		_, dense, ws := refExec(p, c)
		want, err := b.AppendDynamicEdges(nil, dense, ws)
		if err != nil {
			t.Fatal(err)
		}
		execs[i] = exec{dense, ws, want}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var dst []Edge
			for i := 0; i < 200; i++ {
				e := execs[(w+i)%len(execs)]
				var err error
				if dst, err = b.AppendDynamicEdges(dst[:0], e.dense, e.ws); err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(dst, e.want) {
					t.Errorf("worker %d: concurrent edges differ from the serial result", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// hotStoreProgram is one thread storing word 0 twice and readers threads
// of loads loads each from word 0: every load can read the same store, so
// one store's bucket holds an rf edge per load.
func hotStoreProgram(readers, loads int) *prog.Program {
	pb := prog.NewBuilder("hot-store", 1, prog.DefaultLayout()).Thread().Store(0).Store(0)
	for range readers {
		pb.Thread()
		for range loads {
			pb.Load(0)
		}
	}
	return pb.MustBuild()
}

// TestDynamicEdgesHotStoreMatchesReference: a store read by thousands of
// loads, given as an RF map (random iteration order, as CheckTrace passes
// it), still sorts to the reference edges under every model and edge mode.
func TestDynamicEdgesHotStoreMatchesReference(t *testing.T) {
	p := hotStoreProgram(100, 20)
	rng := rand.New(rand.NewSource(15))
	rf, dense := RF{}, make([]int32, p.NumOps())
	for _, op := range p.Ops() {
		dense[op.ID] = -1
		if op.Kind != prog.Load {
			continue
		}
		src := []int{-1, 0, 0, 0, 0, 0, 1}[rng.Intn(7)] // mostly the first store
		rf[op.ID], dense[op.ID] = src, int32(src)
	}
	ws := WS{0: {0, 1}}
	models, optsList := refModes()
	for _, model := range models {
		for _, opts := range optsList {
			diffAgainstReference(t, p, model, opts, rf, dense, ws)
		}
	}
}
