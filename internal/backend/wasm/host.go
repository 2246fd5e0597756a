package wasmbackend

import (
	"errors"
	"fmt"
	"io"
	"math"

	"thorin/internal/wasm"
)

// TrapError is a runtime trap raised by emitted code through the
// env.trap import. Its message matches the corresponding VM error text
// so the two backends report identical observable failures.
type TrapError struct {
	Code int64
}

func (e *TrapError) Error() string {
	switch e.Code {
	case TrapDivZero:
		return "wasm: division by zero"
	case TrapRemZero:
		return "wasm: remainder by zero"
	case TrapBounds:
		return "wasm: index out of bounds"
	case TrapNegSize:
		return "wasm: negative array size"
	case TrapOOM:
		return "wasm: out of memory"
	}
	return fmt.Sprintf("wasm: trap %d", e.Code)
}

// MapTrap returns err with the interpreter's linear-memory fault replaced
// by TrapBounds: emitted code dereferences outside memory only at the
// poison address $lea returns for an out-of-range index.
func MapTrap(err error) error {
	var t *wasm.Trap
	if errors.As(err, &t) && t.Msg == "out of bounds memory access" {
		return &TrapError{Code: TrapBounds}
	}
	return err
}

// Host builds the import map an emitted module needs, with print output
// going to out. Formats match the VM exactly: "%d\n" for integers,
// "%.9g\n" for floats, "%c" for characters.
func Host(out io.Writer) map[string]wasm.HostFunc {
	i64 := wasm.I64
	f64 := wasm.F64
	return map[string]wasm.HostFunc{
		"env.print_i64": {
			Type: wasm.FuncType{Params: []wasm.ValType{i64}},
			Fn: func(args []uint64) ([]uint64, error) {
				_, err := fmt.Fprintf(out, "%d\n", int64(args[0]))
				return nil, err
			},
		},
		"env.print_f64": {
			Type: wasm.FuncType{Params: []wasm.ValType{f64}},
			Fn: func(args []uint64) ([]uint64, error) {
				_, err := fmt.Fprintf(out, "%.9g\n", math.Float64frombits(args[0]))
				return nil, err
			},
		},
		"env.print_char": {
			Type: wasm.FuncType{Params: []wasm.ValType{i64}},
			Fn: func(args []uint64) ([]uint64, error) {
				_, err := fmt.Fprintf(out, "%c", rune(int64(args[0])))
				return nil, err
			},
		},
		"env.fmod": {
			Type: wasm.FuncType{Params: []wasm.ValType{f64, f64}, Results: []wasm.ValType{f64}},
			Fn: func(args []uint64) ([]uint64, error) {
				r := math.Mod(math.Float64frombits(args[0]), math.Float64frombits(args[1]))
				return []uint64{math.Float64bits(r)}, nil
			},
		},
		"env.f2i": {
			Type: wasm.FuncType{Params: []wasm.ValType{f64}, Results: []wasm.ValType{i64}},
			Fn: func(args []uint64) ([]uint64, error) {
				return []uint64{uint64(int64(math.Float64frombits(args[0])))}, nil
			},
		},
		"env.trap": {
			Type: wasm.FuncType{Params: []wasm.ValType{i64}},
			Fn: func(args []uint64) ([]uint64, error) {
				return nil, &TrapError{Code: int64(args[0])}
			},
		},
	}
}
