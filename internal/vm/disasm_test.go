package vm

import "testing"

// TestFormatInstrShapes pins that each op prints only the operands it
// reads, so a store shows its address and value, not a result register.
func TestFormatInstrShapes(t *testing.T) {
	for _, tc := range []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpPtrStore, A: 10, B: 9}, "*r10 = r9"},
		{Instr{Op: OpPtrLoad, A: 7, B: 6}, "r7 = *r6"},
		{Instr{Op: OpArrayNew, A: 3, B: 2}, "r3 = array.new r2"},
		{Instr{Op: OpArrayLen, A: 3, B: 2}, "r3 = array.len r2"},
		{Instr{Op: OpLea, A: 6, B: 3, C: 4}, "r6 = lea r3 r4"},
		{Instr{Op: OpSlotNew, A: 1}, "r1 = slot"},
		{Instr{Op: OpGlobalPtr, A: 1, Imm: 2}, "r1 = global 2"},
		{Instr{Op: OpAddI, A: 4, B: 0, C: 3}, "r4 = add.i r0 r3"},
		{Instr{Op: OpCastIF, A: 2, B: 1}, "r2 = cast.if r1"},
		{Instr{Op: OpCastII, A: 2, B: 1, Imm: 32}, "r2 = cast.ii r1 32"},
		{Instr{Op: OpTupleSet, A: 4, B: 2, C: 1, Imm: 0}, "r4 = r2 with .0 = r1"},
		{Instr{Op: OpPrintI64, A: 4}, "print.i r4"},
		{Instr{Op: OpPrintChar, A: 4}, "print.c r4"},
		{Instr{Op: OpNop}, "nop"},
	} {
		if got := formatInstr(&tc.in); got != tc.want {
			t.Errorf("%v prints %q, want %q", tc.in.Op, got, tc.want)
		}
	}
}
