package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"time"

	"thorin/internal/backend"
	"thorin/internal/bench"
	"thorin/internal/driver"
	"thorin/internal/vm"
)

// roundWorkload is a single-client closed loop over a fixed list of op
// inputs. Each round visits every input once in a seeded shuffled order, so
// a burst of host noise lands on all inputs alike, and only whole rounds
// are run.
type roundWorkload struct {
	names []string
	op    func(i int, tr *tracer) error
	// oracle holds the setup's checked executions, which give the exact
	// instruction and fuel counts; artifacts are the reference artifacts.
	oracle    []execution
	artifacts [][]byte
	sizes     map[string]any
}

type roundResult struct {
	perInput  [][]float64 // untraced op times per input, ms
	all       []float64   // every untraced op time, ms
	traced    []float64   // every traced op time, ms
	attempted int
	failed    int
	window    time.Duration
	allocs    uint64
}

// runRounds measures whole rounds until the window is spent. In a traced
// run, even rounds are traced and odd rounds are not, so the two medians
// give the tracing overhead under the same conditions.
func (w *roundWorkload) runRounds(rng *rand.Rand, window time.Duration, tr *tracer) roundResult {
	r := roundResult{perInput: make([][]float64, len(w.names))}
	minRounds := 1
	if tr != nil {
		minRounds = 2
	}
	start := time.Now()
	a0 := heapAllocs()
	for round := 0; round < minRounds || time.Since(start) < window; round++ {
		traced := tr != nil && round%2 == 0
		for _, i := range rng.Perm(len(w.names)) {
			t0 := time.Now()
			var err error
			if traced {
				id := tr.beginOp("op")
				err = w.op(i, tr)
				tr.endOp(id)
			} else {
				err = w.op(i, nil)
			}
			d := ms(time.Since(t0))
			r.attempted++
			if err != nil {
				r.failed++
				fmt.Fprintf(os.Stderr, "perfbench: op %s failed: %v\n", w.names[i], err)
			}
			if traced {
				r.traced = append(r.traced, d)
			} else {
				r.perInput[i] = append(r.perInput[i], d)
				r.all = append(r.all, d)
			}
		}
	}
	r.window = time.Since(start)
	r.allocs = heapAllocs() - a0
	return r
}

// compileWorkload compiles every input for each op target at -O2 and the
// given jobs level; one op is one (input, target) compile plus encoding,
// checked byte for byte against the setup's compile of the same pair. The
// setup also compiles for every oracle target and executes each artifact
// against the interpreter, which is the warm-up round.
func compileWorkload(inputs []*input, opTargets []backend.Target, jobs int, tr *tracer) (*roundWorkload, error) {
	w := &roundWorkload{sizes: map[string]any{"inputs": inputs, "jobs": jobs, "targets": opTargets}}
	type job struct {
		in *input
		t  backend.Target
	}
	var opJobs []job
	ref := map[job][]byte{}
	for _, in := range inputs {
		for _, t := range targets {
			data, err := compileArtifact(tr, in.src, in.tokens, t, jobs)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", in.Name, t, err)
			}
			ex, err := execArtifact(tr, data, in)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", in.Name, t, err)
			}
			w.oracle = append(w.oracle, ex)
			ref[job{in, t}] = data
		}
		for _, t := range opTargets {
			j := job{in, t}
			opJobs = append(opJobs, j)
			w.names = append(w.names, in.Name+"/"+string(t))
			w.artifacts = append(w.artifacts, ref[j])
		}
	}
	w.op = func(i int, tr *tracer) error {
		j := opJobs[i]
		data, err := compileArtifact(tr, j.in.src, j.in.tokens, j.t, jobs)
		if err != nil {
			return err
		}
		if !bytes.Equal(data, ref[j]) {
			return fmt.Errorf("artifact differs from the first compile of the run")
		}
		return nil
	}
	return w, nil
}

// compileSmallInputs are the suite sources, the examples, the crasher
// corpus and seeded fuzzgen draws: many tiny programs.
func compileSmallInputs(root string, small bool) ([]*input, error) {
	suite, err := suiteInputs(func(name string) int64 { return oracleN[name] })
	if err != nil {
		return nil, err
	}
	examples, err := fileInputs(root, "examples/*.imp", 7)
	if err != nil {
		return nil, err
	}
	crashers, err := fileInputs(root, "internal/driver/testdata/crashers/*.imp", 7)
	if err != nil {
		return nil, err
	}
	draws := 8
	if small {
		draws = 2
	}
	fuzz, err := fuzzInputs(draws)
	if err != nil {
		return nil, err
	}
	out := append(suite, examples...)
	out = append(out, crashers...)
	return append(out, fuzz...), nil
}

// largeSizes are the compile-large program sizes: GenManyFns function
// counts and GenChain depths.
type largeSizes struct {
	ManyFns []int `json:"manyfns"`
	Chain   []int `json:"chain"`
}

// compileLargeSizes keeps the number of inputs odd. The inputs' times are
// well apart, so with an even count the median op falls in the gap between
// the two middle inputs and follows the fastest sample of one and the
// slowest of the other; with an odd count it is the middle input's median.
func compileLargeSizes(small bool) largeSizes {
	if small {
		return largeSizes{ManyFns: []int{4, 8}, Chain: []int{4, 8, 16}}
	}
	return largeSizes{ManyFns: []int{24, 48}, Chain: []int{75, 150, 300}}
}

func compileLargeInputs(sz largeSizes) ([]*input, error) {
	var out []*input
	for _, n := range sz.ManyFns {
		in, err := newInput(fmt.Sprintf("manyfns-%d", n), bench.GenManyFns(n), 7)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	for _, d := range sz.Chain {
		in, err := newInput(fmt.Sprintf("chain-%d", d), bench.GenChain(d), 7)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// executeN is the argument each suite program runs at in the execute
// workload, chosen so one op takes milliseconds on either engine.
var executeN = map[string]int64{
	"fib": 20, "mapreduce": 4000, "filter": 6000, "compose": 32000, "mandelbrot": 32,
	"nbody": 120, "spectralnorm": 28, "qsort": 600, "matmul": 20, "nqueens": 7,
}

// executeWorkload precompiles both variants of every suite program for both
// targets; one op runs one (program, variant, target) at its stated n and
// checks the result against the interpreter (and, on the VM, the exact
// instruction count against the setup's run).
func executeWorkload(small bool, tr *tracer) (*roundWorkload, error) {
	nOf := func(name string) int64 { return executeN[name] }
	if small {
		nOf = func(name string) int64 { return oracleN[name] }
	}
	inputs, err := suiteInputs(nOf)
	if err != nil {
		return nil, err
	}
	w := &roundWorkload{sizes: map[string]any{"inputs": inputs, "jobs": 1, "targets": targets}}
	type prepared struct {
		in     *input
		t      backend.Target
		prog   *vm.Program
		mod    []byte
		instrs int64
	}
	var ops []prepared
	for _, in := range inputs {
		for _, t := range targets {
			data, err := compileArtifact(tr, in.src, in.tokens, t, 1)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", in.Name, t, err)
			}
			ex, err := execArtifact(tr, data, in)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", in.Name, t, err)
			}
			art, err := driver.DecodeArtifact(data)
			if err != nil {
				return nil, err
			}
			w.oracle = append(w.oracle, ex)
			w.artifacts = append(w.artifacts, data)
			w.names = append(w.names, in.Name+"/"+string(t))
			ops = append(ops, prepared{in: in, t: t, prog: art.Program, mod: art.Wasm, instrs: ex.instrs})
		}
	}
	w.op = func(i int, tr *tracer) error {
		p := ops[i]
		if p.t == backend.VM {
			got, ctr, err := runVM(tr, p.prog, p.in.N)
			if err := p.in.check(got, err); err != nil {
				return err
			}
			if ctr.Instructions != p.instrs {
				return fmt.Errorf("%d VM instructions, setup counted %d", ctr.Instructions, p.instrs)
			}
			return nil
		}
		if tr != nil {
			got, _, err := runWasm(tr, p.mod, p.in.N)
			return p.in.check(got, err)
		}
		got, err := driver.ExecWasm(p.mod, nil, execBudget, p.in.N)
		return p.in.check(got, err)
	}
	return w, nil
}
