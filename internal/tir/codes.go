package tir

// Stable diagnostic codes of the TyTra-IR front stage. Codes are part
// of the tool contract: tytravet output, the golden diagnostics corpus
// and CI greps key on them, so once assigned a code never changes
// meaning. TIR001 is the syntax family, TIR01x-TIR03x the semantic
// checks of Analyze's first pass, TIR04x its deeper static passes
// (conditions that previously only failed at runtime or degraded
// silently inside pipesim), TIR05x builder misuse, TIR06x the elaborated design's
// instance count (internal/elab), and TIR09x checks that need a target
// description (cmd/tytravet).
const (
	// CodeSyntax is any lexical or syntactic error.
	CodeSyntax = "TIR001"

	// First pass: module and Manage-IR structure.
	CodeNoFunctions = "TIR010" // module has no functions
	CodeNoMain      = "TIR011" // module has no @main entry function
	CodeDupMem      = "TIR012" // duplicate memory object
	CodeMemSize     = "TIR013" // non-positive memory object size
	CodeBadType     = "TIR014" // invalid element/parameter type
	CodeBadStride   = "TIR015" // strided object/port without positive stride
	CodeDupStream   = "TIR016" // duplicate stream object
	CodeUnknownMem  = "TIR017" // stream references unknown memory object
	CodeDupPort     = "TIR018" // duplicate port
	CodeUnknownStr  = "TIR019" // port references unknown stream object
	CodeDirMismatch = "TIR020" // port/stream direction disagreement

	// First pass: Compute-IR functions and bodies.
	CodeDupFunc       = "TIR021" // duplicate function
	CodeDupParam      = "TIR022" // duplicate parameter
	CodeSSA           = "TIR023" // SSA violation: name assigned twice
	CodeUndefined     = "TIR024" // use of undefined value
	CodeUnknownCallee = "TIR025" // call to unknown function
	CodeArity         = "TIR026" // call argument count mismatch
	CodeCallMode      = "TIR027" // call mode disagrees with callee mode
	CodeCombDrivesImm = "TIR028" // comb call drives an immediate operand
	CodeBadOffset     = "TIR029" // offset from immediate, or zero offset
	CodeOpcodeType    = "TIR030" // opcode applied to wrong type family
	CodeAccNoRead     = "TIR031" // global accumulator written without accumulation
	CodeBadOut        = "TIR032" // out to non-parameter, type mismatch, or double bind
	CodeParStructure  = "TIR033" // par function structure (datapath, child modes, lanes)
	CodeCombStructure = "TIR034" // comb function contains calls
	CodeRecursion     = "TIR035" // recursive call cycle
	CodeUnknownInstr  = "TIR036" // unknown instruction kind

	// Deep passes: conditions that previously failed only at runtime, or
	// degraded silently, inside pipesim.
	CodePortWiring    = "TIR040" // pipe call argument does not wire a matching top-level port
	CodeNoStreams     = "TIR041" // pipe call site binds no streams
	CodeOffsetRoot    = "TIR042" // offset not rooted in an input stream
	CodeOffsetBounds  = "TIR043" // offset window never intersects the bound stream (warning)
	CodeAccIdentity   = "TIR044" // par-reduced accumulator lacks a merge identity (warning)
	CodeDatapathEval  = "TIR045" // datapath not executable by the pipeline simulator (warning)
	CodeItemOrder     = "TIR046" // aliased in/out streams pin item order: no batching (warning)
	CodeExecStructure = "TIR047" // call structure the pipeline cannot execute
	CodeCombReadsOut  = "TIR048" // comb block reads a parameter it drives

	// Programmatic construction (tir.Builder misuse).
	CodeBuilderType = "TIR050" // builder binary operation over mismatched operand types

	// Elaboration (internal/elab).
	CodeInstanceBound = "TIR060" // instance count overflows int64, or exceeds what a back end materialises

	// Target-dependent checks (cmd/tytravet -target).
	CodeDeviceFit = "TIR090" // static resource estimate exceeds the device capacity
)

// CodeTable maps every stable code to a one-line description; it is
// the source of the DESIGN.md code table and of `tytravet -codes`.
var CodeTable = []struct {
	Code, Desc string
}{
	{CodeSyntax, "lexical or syntactic error"},
	{CodeNoFunctions, "module has no functions"},
	{CodeNoMain, "module has no @main entry function"},
	{CodeDupMem, "duplicate memory object"},
	{CodeMemSize, "memory object has non-positive size"},
	{CodeBadType, "invalid element or parameter type"},
	{CodeBadStride, "strided object/port needs a positive stride"},
	{CodeDupStream, "duplicate stream object"},
	{CodeUnknownMem, "stream references unknown memory object"},
	{CodeDupPort, "duplicate port"},
	{CodeUnknownStr, "port references unknown stream object"},
	{CodeDirMismatch, "port and stream directions disagree"},
	{CodeDupFunc, "duplicate function"},
	{CodeDupParam, "duplicate parameter"},
	{CodeSSA, "SSA violation: name assigned twice"},
	{CodeUndefined, "use of undefined value"},
	{CodeUnknownCallee, "call to unknown function"},
	{CodeArity, "call argument count mismatch"},
	{CodeCallMode, "call mode disagrees with callee's declared mode"},
	{CodeCombDrivesImm, "comb call drives an immediate operand"},
	{CodeBadOffset, "offset from an immediate, or offset of zero"},
	{CodeOpcodeType, "opcode applied to the wrong type family"},
	{CodeAccNoRead, "global accumulator written without accumulation"},
	{CodeBadOut, "out to a non-parameter, type mismatch, or port bound twice"},
	{CodeParStructure, "par function structure violation"},
	{CodeCombStructure, "comb function must be pure datapath"},
	{CodeRecursion, "recursive call cycle"},
	{CodeUnknownInstr, "unknown instruction kind"},
	{CodePortWiring, "pipe call argument does not wire a matching top-level port"},
	{CodeNoStreams, "pipe call site binds no streams"},
	{CodeOffsetRoot, "offset not rooted in an input stream"},
	{CodeOffsetBounds, "offset window never intersects the bound stream"},
	{CodeAccIdentity, "par-reduced accumulator lacks a merge identity"},
	{CodeDatapathEval, "datapath not executable by the pipeline simulator"},
	{CodeItemOrder, "aliased in/out streams pin execution to item order"},
	{CodeExecStructure, "call structure the pipeline cannot execute (root mode, child mode, empty pipe)"},
	{CodeCombReadsOut, "comb block reads a parameter it drives"},
	{CodeBuilderType, "builder binary operation over mismatched operand types"},
	{CodeInstanceBound, "design instance count overflows int64 or exceeds the materialisation bound"},
	{CodeDeviceFit, "static resource estimate exceeds the device capacity"},
}
