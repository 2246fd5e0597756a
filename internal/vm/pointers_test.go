package vm

import "testing"

// runCode runs a single function "f" with the given code and registers on
// a program with one global cell, and returns its first result.
func runCode(t *testing.T, numRegs int, code []Instr, args ...Value) (Value, error) {
	t.Helper()
	params := make([]int, len(args))
	for i := range params {
		params[i] = i
	}
	f := &Func{Name: "f", NumRegs: numRegs, ParamRegs: params,
		Blocks: []Block{{Name: "entry", Start: 0}}, Code: code}
	m := New(&Program{Funcs: []*Func{f}, Globals: []Value{{I: 1}}}, nil)
	res, err := m.Run(args...)
	if err != nil {
		return Value{}, err
	}
	return res[0], nil
}

// TestPointerSemantics pins what a pointer value does, independent of how
// it is represented: forming an address never fails, bounds are checked at
// the access, and every pointer kind survives a round trip through memory.
func TestPointerSemantics(t *testing.T) {
	n4 := Value{I: 4}
	tests := []struct {
		name    string
		regs    int
		code    []Instr
		want    int64
		wantErr string
	}{
		{
			name: "out-of-range lea forms",
			regs: 5,
			code: []Instr{
				{Op: OpArrayNew, A: 1, B: 0},
				{Op: OpConstI, A: 2, Imm: -1},
				{Op: OpLea, A: 3, B: 1, C: 2}, // &a[-1]
				{Op: OpLea, A: 4, B: 1, C: 0}, // &a[4]
				{Op: OpRet, Args: []int{0}},
			},
			want: 4,
		},
		{
			name: "load past the end",
			regs: 4,
			code: []Instr{
				{Op: OpArrayNew, A: 1, B: 0},
				{Op: OpConstI, A: 2, Imm: 5},
				{Op: OpLea, A: 3, B: 1, C: 2},
				{Op: OpPtrLoad, A: 2, B: 3},
				{Op: OpRet, Args: []int{2}},
			},
			wantErr: "vm: f: load: index 5 out of bounds [0,4)",
		},
		{
			name: "store below zero",
			regs: 4,
			code: []Instr{
				{Op: OpArrayNew, A: 1, B: 0},
				{Op: OpConstI, A: 2, Imm: -1},
				{Op: OpLea, A: 3, B: 1, C: 2},
				{Op: OpPtrStore, A: 3, B: 0},
				{Op: OpRet, Args: []int{0}},
			},
			wantErr: "vm: f: store: index -1 out of bounds [0,4)",
		},
		{
			// lea through &a[1] with index 3 addresses a[3], not a[4], and
			// array.len through &a[1] is len(a).
			name: "lea and len through an element pointer use the base array",
			regs: 10,
			code: []Instr{
				{Op: OpArrayNew, A: 1, B: 0},
				{Op: OpConstI, A: 2, Imm: 1},
				{Op: OpLea, A: 3, B: 1, C: 2}, // p = &a[1]
				{Op: OpConstI, A: 4, Imm: 3},
				{Op: OpLea, A: 5, B: 3, C: 4}, // q = lea p, 3
				{Op: OpConstI, A: 6, Imm: 40},
				{Op: OpPtrStore, A: 5, B: 6},  // *q = 40
				{Op: OpLea, A: 7, B: 1, C: 4}, // &a[3]
				{Op: OpPtrLoad, A: 8, B: 7},
				{Op: OpArrayLen, A: 9, B: 3},
				{Op: OpAddI, A: 8, B: 8, C: 9}, // a[3] + len(p)
				{Op: OpRet, Args: []int{8}},
			},
			want: 44,
		},
		{
			name: "a global pointer sees later global writes",
			regs: 5,
			code: []Instr{
				{Op: OpGlobalPtr, A: 1, Imm: 0}, // formed before the write
				{Op: OpGlobalPtr, A: 2, Imm: 0},
				{Op: OpConstI, A: 3, Imm: 7},
				{Op: OpPtrStore, A: 2, B: 3},
				{Op: OpPtrLoad, A: 4, B: 1},
				{Op: OpRet, Args: []int{4}},
			},
			want: 7,
		},
		{
			// An element pointer and a global pointer, each stored into a
			// slot, loaded back and written through.
			name: "pointers stored into a slot still dereference",
			regs: 12,
			code: []Instr{
				{Op: OpArrayNew, A: 1, B: 0},
				{Op: OpConstI, A: 2, Imm: 2},
				{Op: OpLea, A: 3, B: 1, C: 2}, // &a[2]
				{Op: OpSlotNew, A: 4},
				{Op: OpPtrStore, A: 4, B: 3},
				{Op: OpPtrLoad, A: 5, B: 4},
				{Op: OpConstI, A: 6, Imm: 30},
				{Op: OpPtrStore, A: 5, B: 6}, // a[2] = 30
				{Op: OpGlobalPtr, A: 7, Imm: 0},
				{Op: OpPtrStore, A: 4, B: 7},
				{Op: OpPtrLoad, A: 8, B: 4},
				{Op: OpConstI, A: 6, Imm: 12},
				{Op: OpPtrStore, A: 8, B: 6}, // global = 12
				{Op: OpPtrLoad, A: 9, B: 3},
				{Op: OpPtrLoad, A: 10, B: 7},
				{Op: OpAddI, A: 11, B: 9, C: 10},
				{Op: OpRet, Args: []int{11}},
			},
			want: 42,
		},
		{
			name: "load through an integer",
			regs: 2,
			code: []Instr{
				{Op: OpPtrLoad, A: 1, B: 0},
				{Op: OpRet, Args: []int{1}},
			},
			wantErr: "vm: f: load through non-pointer",
		},
		{
			name: "store through an array",
			regs: 2,
			code: []Instr{
				{Op: OpArrayNew, A: 1, B: 0},
				{Op: OpPtrStore, A: 1, B: 0},
				{Op: OpRet, Args: []int{0}},
			},
			wantErr: "vm: f: store through non-pointer",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := runCode(t, tc.regs, tc.code, n4)
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil || got.I != tc.want {
				t.Fatalf("got %d, %v; want %d", got.I, err, tc.want)
			}
		})
	}
}
