package driver

import (
	"io"
	"strings"
	"testing"

	"thorin/internal/vm"
)

// TestVMRejectsInvalidPrograms sends programs that the VM cannot run
// through ExecSteps. Each would make the dispatch loop index out of range
// or run off its code, so ExecSteps must return the validation error
// instead of running it.
func TestVMRejectsInvalidPrograms(t *testing.T) {
	// mainOf wraps code as main(r0) with numRegs registers.
	mainOf := func(numRegs int, blocks []vm.Block, code ...vm.Instr) *vm.Program {
		return &vm.Program{Funcs: []*vm.Func{{
			Name: "main", NumRegs: numRegs, ParamRegs: []int{0}, Blocks: blocks, Code: code,
		}}}
	}
	entry := []vm.Block{{Name: "entry", Start: 0}}
	ret := vm.Instr{Op: vm.OpRet, Args: []int{0}}
	for name, prog := range map[string]*vm.Program{
		"mov r0, r9":             mainOf(1, entry, vm.Instr{Op: vm.OpMov, A: 0, B: 9}, ret),
		"jmp to a missing block": mainOf(1, entry, vm.Instr{Op: vm.OpJmp, Imm: 3}),
		"jmp with fewer arguments than params": mainOf(2,
			[]vm.Block{{Name: "entry", Start: 0}, {Name: "k", Start: 1, ParamRegs: []int{0, 1}}},
			vm.Instr{Op: vm.OpJmp, Imm: 1, Args: []int{0}}, ret),
		"call to a missing function": mainOf(1,
			[]vm.Block{{Name: "entry", Start: 0}, {Name: "k", Start: 1}},
			vm.Instr{Op: vm.OpCall, Imm: 5, Args: []int{0}, Rets: []int{0}, C: 1}, ret),
		"block falls off the code end": mainOf(1, entry, vm.Instr{Op: vm.OpAddI, A: 0, B: 0, C: 0}),
		"main out of range": func() *vm.Program {
			p := mainOf(1, entry, ret)
			p.Main = 2
			return p
		}(),
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("ExecSteps panicked: %v", r)
				}
			}()
			_, _, err := ExecSteps(prog, io.Discard, 0, 1)
			if err == nil || !strings.Contains(err.Error(), "invalid program") {
				t.Errorf("ExecSteps = %v, want a validation error", err)
			}
		})
	}
}
