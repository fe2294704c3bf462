package evm

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestShanghaiOpcodeCount(t *testing.T) {
	// The paper states the Shanghai fork defines exactly 144 opcodes.
	if got := len(AllOpcodes()); got != 144 {
		t.Fatalf("Shanghai opcode count = %d, want 144", got)
	}
}

func TestOpcodeTableEntries(t *testing.T) {
	tests := []struct {
		op   Opcode
		name string
		gas  int
	}{
		{STOP, "STOP", 0},
		{ADD, "ADD", 3},
		{MUL, "MUL", 5},
		{SHA3, "SHA3", 30},
		{PUSH0, "PUSH0", 2},
		{PUSH1, "PUSH1", 3},
		{PUSH32, "PUSH32", 3},
		{DUP1, "DUP1", 3},
		{SWAP16, "SWAP16", 3},
		{LOG0, "LOG0", 375},
		{LOG3, "LOG3", 1500},
		{LOG4, "LOG4", 1875},
		{CREATE, "CREATE", 32000},
		{REVERT, "REVERT", 0},
		{INVALID, "INVALID", GasUndefined},
		{SELFDESTRUCT, "SELFDESTRUCT", 5000},
		{JUMPDEST, "JUMPDEST", 1},
		{SLOAD, "SLOAD", 100},
		{PREVRANDAO, "PREVRANDAO", 2},
	}
	for _, tt := range tests {
		if got := tt.op.Name(); got != tt.name {
			t.Errorf("Opcode(0x%02X).Name() = %q, want %q", byte(tt.op), got, tt.name)
		}
		if got := tt.op.Gas(); got != tt.gas {
			t.Errorf("%s.Gas() = %d, want %d", tt.name, got, tt.gas)
		}
	}
}

func TestGasFloatNaN(t *testing.T) {
	if !math.IsNaN(INVALID.GasFloat()) {
		t.Errorf("INVALID.GasFloat() = %v, want NaN", INVALID.GasFloat())
	}
	if ADD.GasFloat() != 3 {
		t.Errorf("ADD.GasFloat() = %v, want 3", ADD.GasFloat())
	}
}

func TestUndefinedOpcodes(t *testing.T) {
	for _, b := range []byte{0x0C, 0x0D, 0x1E, 0x21, 0x49, 0x5C, 0xA5, 0xEF, 0xFB} {
		op := Opcode(b)
		if op.Defined() {
			t.Errorf("Opcode(0x%02X).Defined() = true, want false", b)
		}
		if !strings.HasPrefix(op.Name(), "UNKNOWN_0x") {
			t.Errorf("Opcode(0x%02X).Name() = %q, want UNKNOWN_ prefix", b, op.Name())
		}
		if op.Gas() != GasUndefined {
			t.Errorf("Opcode(0x%02X).Gas() = %d, want GasUndefined", b, op.Gas())
		}
	}
}

func TestPushFamily(t *testing.T) {
	if PUSH0.PushSize() != 0 {
		t.Errorf("PUSH0.PushSize() = %d, want 0 (no immediate)", PUSH0.PushSize())
	}
	if !PUSH0.IsPush() {
		t.Error("PUSH0.IsPush() = false, want true")
	}
	for n := 1; n <= 32; n++ {
		op := Opcode(0x60 + n - 1)
		if got := op.PushSize(); got != n {
			t.Errorf("PUSH%d.PushSize() = %d, want %d", n, got, n)
		}
		if !op.IsPush() {
			t.Errorf("PUSH%d.IsPush() = false, want true", n)
		}
	}
	if ADD.IsPush() || ADD.PushSize() != 0 {
		t.Error("ADD misclassified as push")
	}
}

func TestFamilyPredicates(t *testing.T) {
	if !DUP1.IsDup() || !DUP16.IsDup() || DUP1.IsSwap() {
		t.Error("DUP family predicates wrong")
	}
	if !SWAP1.IsSwap() || !SWAP16.IsSwap() || SWAP1.IsDup() {
		t.Error("SWAP family predicates wrong")
	}
	if !LOG0.IsLog() || !LOG4.IsLog() || STOP.IsLog() {
		t.Error("LOG family predicates wrong")
	}
	for _, op := range []Opcode{STOP, RETURN, REVERT, INVALID, SELFDESTRUCT, JUMP} {
		if !op.IsTerminator() {
			t.Errorf("%s.IsTerminator() = false, want true", op)
		}
	}
	if JUMPI.IsTerminator() {
		t.Error("JUMPI.IsTerminator() = true, want false (conditional)")
	}
}

func TestOpcodeByName(t *testing.T) {
	for _, op := range AllOpcodes() {
		got, ok := OpcodeByName(op.Name())
		if !ok || got != op {
			t.Errorf("OpcodeByName(%q) = %v,%v, want %v,true", op.Name(), got, ok, op)
		}
	}
	if _, ok := OpcodeByName("NOSUCHOP"); ok {
		t.Error("OpcodeByName accepted garbage")
	}
}

func TestDisassemblePaperExample(t *testing.T) {
	// The paper: 0x6080604052 disassembles to
	// (PUSH1,0x80,3) (PUSH1,0x40,3) (MSTORE,NaN,3).
	code, err := DecodeHex("0x6080604052")
	if err != nil {
		t.Fatalf("DecodeHex: %v", err)
	}
	ins := Disassemble(code)
	want := []string{"(PUSH1, 0x80, 3)", "(PUSH1, 0x40, 3)", "(MSTORE, NaN, 3)"}
	if len(ins) != len(want) {
		t.Fatalf("got %d instructions, want %d", len(ins), len(want))
	}
	for i, w := range want {
		if ins[i].String() != w {
			t.Errorf("instruction %d = %s, want %s", i, ins[i], w)
		}
	}
}

func TestDisassembleOffsets(t *testing.T) {
	code := []byte{byte(PUSH2), 0xAA, 0xBB, byte(ADD), byte(PUSH0), byte(STOP)}
	ins := Disassemble(code)
	wantOffsets := []int{0, 3, 4, 5}
	if len(ins) != len(wantOffsets) {
		t.Fatalf("got %d instructions, want %d", len(ins), len(wantOffsets))
	}
	for i, off := range wantOffsets {
		if ins[i].Offset != off {
			t.Errorf("instruction %d offset = %d, want %d", i, ins[i].Offset, off)
		}
	}
}

func TestDisassembleTruncatedPush(t *testing.T) {
	code := []byte{byte(PUSH4), 0x01, 0x02} // two operand bytes missing
	ins := Disassemble(code)
	if len(ins) != 1 {
		t.Fatalf("got %d instructions, want 1", len(ins))
	}
	if !ins[0].Truncated {
		t.Error("Truncated = false, want true")
	}
	if len(ins[0].Operand) != 2 {
		t.Errorf("operand length = %d, want 2", len(ins[0].Operand))
	}
}

func TestDisassembleEmpty(t *testing.T) {
	if got := Disassemble(nil); len(got) != 0 {
		t.Errorf("Disassemble(nil) returned %d instructions", len(got))
	}
}

func TestAssembleRoundTripProperty(t *testing.T) {
	// Disassembly is loss-free: reassembling always reproduces the input,
	// for arbitrary (even invalid) byte strings.
	f := func(code []byte) bool {
		return bytes.Equal(Assemble(Disassemble(code)), code)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestInstructionCountProperty(t *testing.T) {
	// Instruction sizes always sum to the code length.
	f := func(code []byte) bool {
		total := 0
		for _, in := range Disassemble(code) {
			total += in.Size()
		}
		return total == len(code)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeHex(t *testing.T) {
	tests := []struct {
		in      string
		want    []byte
		wantErr bool
	}{
		{"0x6080", []byte{0x60, 0x80}, false},
		{"6080", []byte{0x60, 0x80}, false},
		{"0X6080", []byte{0x60, 0x80}, false},
		{"  0x00ff \n", []byte{0x00, 0xFF}, false},
		{"0x", []byte{}, false},
		{"0x608", nil, true},
		{"0xzz", nil, true},
	}
	for _, tt := range tests {
		got, err := DecodeHex(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("DecodeHex(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && !bytes.Equal(got, tt.want) {
			t.Errorf("DecodeHex(%q) = %x, want %x", tt.in, got, tt.want)
		}
	}
}

// TestDecodeHexBytesMatchesDecodeHex pins the byte-slice twin to the string
// decoder: same bytes (nil-ness included) and same error text on every case.
func TestDecodeHexBytesMatchesDecodeHex(t *testing.T) {
	for _, in := range []string{
		"", "0x", "0X", " 0x ", "0x6080", "6080", "0X6080", "0x0X60", "0x0x60",
		"  0x00ff \n", "\u00a00x60\u2003", "0x608", "0xzz", "0x6g", "0x60\x00", "0x 60",
	} {
		want, wantErr := DecodeHex(in)
		got, err := DecodeHexBytes([]byte(in))
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("DecodeHexBytes(%q) error = %v, DecodeHex has %v", in, err, wantErr)
		}
		if !bytes.Equal(got, want) || (got == nil) != (want == nil) {
			t.Errorf("DecodeHexBytes(%q) = %#v, DecodeHex has %#v", in, got, want)
		}
	}
}

func TestEncodeDecodeHexRoundTrip(t *testing.T) {
	f := func(code []byte) bool {
		got, err := DecodeHex(EncodeHex(code))
		return err == nil && bytes.Equal(got, code)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	code := []byte{
		byte(PUSH1), 0x80, byte(PUSH1), 0x40, byte(MSTORE),
		byte(CALLVALUE), byte(DUP1), byte(ISZERO), byte(INVALID),
		0xEF,                                                  // undefined byte
		byte(PUSH1) + 2, 0x01, 0x02, 0x03, byte(SELFDESTRUCT), // PUSH3
	}
	ins := Disassemble(code)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ins); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !bytes.Equal(Assemble(back), code) {
		t.Errorf("CSV round trip lost data: %x != %x", Assemble(back), code)
	}
}

func TestCSVHeaderOnly(t *testing.T) {
	ins, err := ReadCSV(strings.NewReader("offset,mnemonic,operand,gas\n"))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if len(ins) != 0 {
		t.Errorf("got %d instructions from header-only csv", len(ins))
	}
}

func TestMnemonics(t *testing.T) {
	code := []byte{byte(PUSH1), 0x00, byte(ADD)}
	got := Mnemonics(Disassemble(code))
	if len(got) != 2 || got[0] != "PUSH1" || got[1] != "ADD" {
		t.Errorf("Mnemonics = %v, want [PUSH1 ADD]", got)
	}
}

func BenchmarkDisassemble(b *testing.B) {
	// Typical deployed contract is a few KiB; use 4 KiB of dense code.
	code := make([]byte, 4096)
	for i := range code {
		code[i] = byte(i * 7)
	}
	b.SetBytes(int64(len(code)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Disassemble(code)
	}
}
