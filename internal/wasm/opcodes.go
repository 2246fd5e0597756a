// Package wasm implements the slice of the WebAssembly MVP binary format
// that the thorin wasm backend emits: an encoder and decoder for modules,
// a type-checking validator, a fuel-bounded interpreter, and a WAT
// printer. It has no dependency on the rest of the compiler and no
// external dependencies; it exists so emitted modules can be validated
// and differentially executed in-process.
package wasm

// Value types.
type ValType byte

const (
	I32     ValType = 0x7F
	I64     ValType = 0x7E
	F32     ValType = 0x7D
	F64     ValType = 0x7C
	Funcref ValType = 0x70
)

func (t ValType) String() string {
	switch t {
	case I32:
		return "i32"
	case I64:
		return "i64"
	case F32:
		return "f32"
	case F64:
		return "f64"
	case Funcref:
		return "funcref"
	}
	return "?"
}

// Section ids.
const (
	secCustom = 0
	secType   = 1
	secImport = 2
	secFunc   = 3
	secTable  = 4
	secMemory = 5
	secGlobal = 6
	secExport = 7
	secStart  = 8
	secElem   = 9
	secCode   = 10
	secData   = 11
)

// Export kinds.
const (
	ExtFunc   = 0x00
	ExtTable  = 0x01
	ExtMem    = 0x02
	ExtGlobal = 0x03
)

// BlockEmpty is the empty block type (no params, no results).
const BlockEmpty = 0x40

// Opcodes (the subset this package understands).
const (
	OpUnreachable  = 0x00
	OpNop          = 0x01
	OpBlock        = 0x02
	OpLoop         = 0x03
	OpIf           = 0x04
	OpElse         = 0x05
	OpEnd          = 0x0B
	OpBr           = 0x0C
	OpBrIf         = 0x0D
	OpReturn       = 0x0F
	OpCall         = 0x10
	OpCallIndirect = 0x11

	OpDrop   = 0x1A
	OpSelect = 0x1B

	OpLocalGet  = 0x20
	OpLocalSet  = 0x21
	OpLocalTee  = 0x22
	OpGlobalGet = 0x23
	OpGlobalSet = 0x24

	OpI32Load  = 0x28
	OpI64Load  = 0x29
	OpF64Load  = 0x2B
	OpI32Store = 0x36
	OpI64Store = 0x37
	OpF64Store = 0x39
	OpMemSize  = 0x3F
	OpMemGrow  = 0x40

	OpI32Const = 0x41
	OpI64Const = 0x42
	OpF64Const = 0x44

	OpI32Eqz = 0x45
	OpI32Eq  = 0x46
	OpI32Ne  = 0x47

	OpI64Eqz = 0x50
	OpI64Eq  = 0x51
	OpI64Ne  = 0x52
	OpI64LtS = 0x53
	OpI64LtU = 0x54
	OpI64GtS = 0x55
	OpI64GtU = 0x56
	OpI64LeS = 0x57
	OpI64LeU = 0x58
	OpI64GeS = 0x59
	OpI64GeU = 0x5A

	OpF64Eq = 0x61
	OpF64Ne = 0x62
	OpF64Lt = 0x63
	OpF64Gt = 0x64
	OpF64Le = 0x65
	OpF64Ge = 0x66

	OpI32Add = 0x6A
	OpI32Sub = 0x6B
	OpI32And = 0x71
	OpI32Or  = 0x72

	OpI64Add  = 0x7C
	OpI64Sub  = 0x7D
	OpI64Mul  = 0x7E
	OpI64DivS = 0x7F
	OpI64DivU = 0x80
	OpI64RemS = 0x81
	OpI64RemU = 0x82
	OpI64And  = 0x83
	OpI64Or   = 0x84
	OpI64Xor  = 0x85
	OpI64Shl  = 0x86
	OpI64ShrS = 0x87
	OpI64ShrU = 0x88

	OpF64Abs  = 0x99
	OpF64Neg  = 0x9A
	OpF64Sqrt = 0x9F
	OpF64Add  = 0xA0
	OpF64Sub  = 0xA1
	OpF64Mul  = 0xA2
	OpF64Div  = 0xA3

	OpI32WrapI64        = 0xA7
	OpI64ExtendI32S     = 0xAC
	OpI64ExtendI32U     = 0xAD
	OpF32DemoteF64      = 0xB6
	OpF64ConvertI64S    = 0xB9
	OpF64ConvertI64U    = 0xBA
	OpF64PromoteF32     = 0xBB
	OpI64ReinterpretF64 = 0xBD
	OpF64ReinterpretI64 = 0xBF
)

// Immediate kinds: what follows an opcode in a body.
const (
	immNone  = iota
	immBlock // block type: BlockEmpty or one value type
	immIdx   // u32 index or branch depth
	immTable // call_indirect: u32 type index, then table index 0
	immMem   // memarg: u32 alignment exponent, then u32 offset
	immZero  // memory index 0
	immI32   // signed LEB128
	immI64   // signed LEB128
	immF64   // 8 bytes, little-endian IEEE bits
)

// opInfo describes an opcode: its WAT mnemonic, its immediate, and the
// fixed signature it pops and pushes, if it has one. The validator types
// control, variable, call, drop and select instructions structurally.
type opInfo struct {
	name      string
	imm       byte
	pop, push []ValType
}

var (
	tI32    = []ValType{I32}
	tI64    = []ValType{I64}
	tF32    = []ValType{F32}
	tF64    = []ValType{F64}
	tI32x2  = []ValType{I32, I32}
	tI64x2  = []ValType{I64, I64}
	tF64x2  = []ValType{F64, F64}
	tI32I64 = []ValType{I32, I64}
	tI32F64 = []ValType{I32, F64}
)

// blockResults maps each block type to its result types; a nil entry is
// not a block type.
var blockResults = [256][]ValType{BlockEmpty: {}, I32: tI32, I64: tI64, F32: tF32, F64: tF64}

// opTable describes every opcode this package reads; an opcode without a
// name is unknown.
var opTable = [256]opInfo{
	OpUnreachable:  {name: "unreachable"},
	OpNop:          {name: "nop"},
	OpBlock:        {name: "block", imm: immBlock},
	OpLoop:         {name: "loop", imm: immBlock},
	OpIf:           {name: "if", imm: immBlock},
	OpElse:         {name: "else"},
	OpEnd:          {name: "end"},
	OpBr:           {name: "br", imm: immIdx},
	OpBrIf:         {name: "br_if", imm: immIdx},
	OpReturn:       {name: "return"},
	OpCall:         {name: "call", imm: immIdx},
	OpCallIndirect: {name: "call_indirect", imm: immTable},
	OpDrop:         {name: "drop"},
	OpSelect:       {name: "select"},

	OpLocalGet:  {name: "local.get", imm: immIdx},
	OpLocalSet:  {name: "local.set", imm: immIdx},
	OpLocalTee:  {name: "local.tee", imm: immIdx},
	OpGlobalGet: {name: "global.get", imm: immIdx},
	OpGlobalSet: {name: "global.set", imm: immIdx},

	OpI32Load:  {"i32.load", immMem, tI32, tI32},
	OpI64Load:  {"i64.load", immMem, tI32, tI64},
	OpF64Load:  {"f64.load", immMem, tI32, tF64},
	OpI32Store: {"i32.store", immMem, tI32x2, nil},
	OpI64Store: {"i64.store", immMem, tI32I64, nil},
	OpF64Store: {"f64.store", immMem, tI32F64, nil},
	OpMemSize:  {"memory.size", immZero, nil, tI32},
	OpMemGrow:  {"memory.grow", immZero, tI32, tI32},

	OpI32Const: {"i32.const", immI32, nil, tI32},
	OpI64Const: {"i64.const", immI64, nil, tI64},
	OpF64Const: {"f64.const", immF64, nil, tF64},

	OpI32Eqz: {"i32.eqz", immNone, tI32, tI32},
	OpI32Eq:  {"i32.eq", immNone, tI32x2, tI32},
	OpI32Ne:  {"i32.ne", immNone, tI32x2, tI32},
	OpI32Add: {"i32.add", immNone, tI32x2, tI32},
	OpI32Sub: {"i32.sub", immNone, tI32x2, tI32},
	OpI32And: {"i32.and", immNone, tI32x2, tI32},
	OpI32Or:  {"i32.or", immNone, tI32x2, tI32},

	OpI64Eqz: {"i64.eqz", immNone, tI64, tI32},
	OpI64Eq:  {"i64.eq", immNone, tI64x2, tI32},
	OpI64Ne:  {"i64.ne", immNone, tI64x2, tI32},
	OpI64LtS: {"i64.lt_s", immNone, tI64x2, tI32},
	OpI64LtU: {"i64.lt_u", immNone, tI64x2, tI32},
	OpI64GtS: {"i64.gt_s", immNone, tI64x2, tI32},
	OpI64GtU: {"i64.gt_u", immNone, tI64x2, tI32},
	OpI64LeS: {"i64.le_s", immNone, tI64x2, tI32},
	OpI64LeU: {"i64.le_u", immNone, tI64x2, tI32},
	OpI64GeS: {"i64.ge_s", immNone, tI64x2, tI32},
	OpI64GeU: {"i64.ge_u", immNone, tI64x2, tI32},

	OpF64Eq: {"f64.eq", immNone, tF64x2, tI32},
	OpF64Ne: {"f64.ne", immNone, tF64x2, tI32},
	OpF64Lt: {"f64.lt", immNone, tF64x2, tI32},
	OpF64Gt: {"f64.gt", immNone, tF64x2, tI32},
	OpF64Le: {"f64.le", immNone, tF64x2, tI32},
	OpF64Ge: {"f64.ge", immNone, tF64x2, tI32},

	OpI64Add:  {"i64.add", immNone, tI64x2, tI64},
	OpI64Sub:  {"i64.sub", immNone, tI64x2, tI64},
	OpI64Mul:  {"i64.mul", immNone, tI64x2, tI64},
	OpI64DivS: {"i64.div_s", immNone, tI64x2, tI64},
	OpI64DivU: {"i64.div_u", immNone, tI64x2, tI64},
	OpI64RemS: {"i64.rem_s", immNone, tI64x2, tI64},
	OpI64RemU: {"i64.rem_u", immNone, tI64x2, tI64},
	OpI64And:  {"i64.and", immNone, tI64x2, tI64},
	OpI64Or:   {"i64.or", immNone, tI64x2, tI64},
	OpI64Xor:  {"i64.xor", immNone, tI64x2, tI64},
	OpI64Shl:  {"i64.shl", immNone, tI64x2, tI64},
	OpI64ShrS: {"i64.shr_s", immNone, tI64x2, tI64},
	OpI64ShrU: {"i64.shr_u", immNone, tI64x2, tI64},

	OpF64Abs:  {"f64.abs", immNone, tF64, tF64},
	OpF64Neg:  {"f64.neg", immNone, tF64, tF64},
	OpF64Sqrt: {"f64.sqrt", immNone, tF64, tF64},
	OpF64Add:  {"f64.add", immNone, tF64x2, tF64},
	OpF64Sub:  {"f64.sub", immNone, tF64x2, tF64},
	OpF64Mul:  {"f64.mul", immNone, tF64x2, tF64},
	OpF64Div:  {"f64.div", immNone, tF64x2, tF64},

	OpI32WrapI64:        {"i32.wrap_i64", immNone, tI64, tI32},
	OpI64ExtendI32S:     {"i64.extend_i32_s", immNone, tI32, tI64},
	OpI64ExtendI32U:     {"i64.extend_i32_u", immNone, tI32, tI64},
	OpF32DemoteF64:      {"f32.demote_f64", immNone, tF64, tF32},
	OpF64ConvertI64S:    {"f64.convert_i64_s", immNone, tI64, tF64},
	OpF64ConvertI64U:    {"f64.convert_i64_u", immNone, tI64, tF64},
	OpF64PromoteF32:     {"f64.promote_f32", immNone, tF32, tF64},
	OpI64ReinterpretF64: {"i64.reinterpret_f64", immNone, tF64, tI64},
	OpF64ReinterpretI64: {"f64.reinterpret_i64", immNone, tI64, tF64},
}
