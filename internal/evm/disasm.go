package evm

import (
	"bytes"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Instruction is one disassembled EVM instruction: the triple (mnemonic,
// operand, gas) recorded by the paper's BDM, plus its byte offset.
type Instruction struct {
	// Offset is the byte position of the opcode within the bytecode.
	Offset int
	// Op is the raw opcode byte.
	Op Opcode
	// Operand holds the immediate bytes of a PUSHn instruction (nil for
	// every other instruction). A PUSH whose immediate runs past the end of
	// the code keeps the truncated bytes, mirroring evmdasm behaviour.
	Operand []byte
	// Truncated records that the instruction's operand was cut short by the
	// end of the bytecode.
	Truncated bool
}

// Mnemonic returns the instruction's human-readable alias.
func (ins Instruction) Mnemonic() string { return ins.Op.Name() }

// Gas returns the instruction's static gas cost (GasUndefined for INVALID
// and undefined bytes).
func (ins Instruction) Gas() int { return ins.Op.Gas() }

// OperandHex returns the operand as a 0x-prefixed hex string, or "NaN" when
// the instruction takes no immediate (the paper's CSV encoding).
func (ins Instruction) OperandHex() string {
	if len(ins.Operand) == 0 {
		return "NaN"
	}
	return "0x" + hex.EncodeToString(ins.Operand)
}

// GasString renders the gas column the way the paper's dataset does:
// a decimal integer, or "NaN" for undefined costs.
func (ins Instruction) GasString() string {
	if g := ins.Op.Gas(); g != GasUndefined {
		return strconv.Itoa(g)
	}
	return "NaN"
}

// String renders the instruction as "(MNEMONIC, operand, gas)".
func (ins Instruction) String() string {
	return fmt.Sprintf("(%s, %s, %s)", ins.Mnemonic(), ins.OperandHex(), ins.GasString())
}

// Size returns the total encoded size of the instruction in bytes.
func (ins Instruction) Size() int { return 1 + len(ins.Operand) }

// Disassemble decodes bytecode into its full linear instruction sequence.
// Every byte is consumed: undefined bytes become UNKNOWN_0xNN instructions
// and truncated PUSH immediates are kept (flagged Truncated), so the
// disassembly is loss-free and Assemble(Disassemble(code)) == code.
//
// Disassemble materializes a []Instruction and is meant for the CSV/report
// paths; hot paths should consume Walk directly.
func Disassemble(code []byte) []Instruction {
	ins := make([]Instruction, 0, len(code))
	Walk(code, func(pc int, op Opcode, operand []byte) {
		ins = append(ins, Instruction{
			Offset:    pc,
			Op:        op,
			Operand:   operand,
			Truncated: len(operand) < op.PushSize(),
		})
	})
	return ins
}

// Assemble re-encodes an instruction sequence to bytecode. It is the inverse
// of Disassemble for any byte string.
func Assemble(ins []Instruction) []byte {
	n := 0
	for _, in := range ins {
		n += in.Size()
	}
	code := make([]byte, 0, n)
	for _, in := range ins {
		code = append(code, byte(in.Op))
		code = append(code, in.Operand...)
	}
	return code
}

// Mnemonics projects a disassembly onto its mnemonic sequence. This is the
// token stream consumed by the language models and histogram featurizers.
func Mnemonics(ins []Instruction) []string {
	out := make([]string, len(ins))
	for i, in := range ins {
		out[i] = in.Mnemonic()
	}
	return out
}

// DecodeHex decodes a hex bytecode string, tolerating an optional 0x prefix
// and surrounding whitespace. An odd-length string is an error: deployed
// bytecode is always byte-aligned.
func DecodeHex(s string) ([]byte, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "0x")
	s = strings.TrimPrefix(s, "0X")
	if len(s)%2 != 0 {
		return nil, oddHexError(len(s))
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return nil, badHexError(err)
	}
	return b, nil
}

// DecodeHexBytes is DecodeHex over bytes still inside a wire buffer (the
// JSON-RPC client decodes eth_getCode literals in place), with the same
// trimming, prefixes and error texts. It allocates only the exactly-sized
// result and does not retain s.
func DecodeHexBytes(s []byte) ([]byte, error) {
	s = bytes.TrimSpace(s)
	s = bytes.TrimPrefix(s, []byte("0x"))
	s = bytes.TrimPrefix(s, []byte("0X"))
	if len(s)%2 != 0 {
		return nil, oddHexError(len(s))
	}
	b := make([]byte, len(s)/2)
	if _, err := hex.Decode(b, s); err != nil {
		return nil, badHexError(err)
	}
	return b, nil
}

func oddHexError(nibbles int) error {
	return fmt.Errorf("evm: odd-length hex bytecode (%d nibbles)", nibbles)
}

func badHexError(err error) error { return fmt.Errorf("evm: invalid hex bytecode: %w", err) }

// EncodeHex renders bytecode as a 0x-prefixed lowercase hex string, the wire
// format returned by eth_getCode.
func EncodeHex(code []byte) string { return "0x" + hex.EncodeToString(code) }

// WriteCSV writes a disassembly in the paper's dataset layout:
// offset,mnemonic,operand,gas — one instruction per row.
func WriteCSV(w io.Writer, ins []Instruction) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"offset", "mnemonic", "operand", "gas"}); err != nil {
		return fmt.Errorf("evm: write csv header: %w", err)
	}
	for _, in := range ins {
		rec := []string{strconv.Itoa(in.Offset), in.Mnemonic(), in.OperandHex(), in.GasString()}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("evm: write csv row at offset %d: %w", in.Offset, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("evm: flush csv: %w", err)
	}
	return nil
}

// ReadCSV parses a disassembly previously written by WriteCSV.
func ReadCSV(r io.Reader) ([]Instruction, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("evm: read csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, nil
	}
	ins := make([]Instruction, 0, len(rows)-1)
	for i, row := range rows[1:] {
		if len(row) != 4 {
			return nil, fmt.Errorf("evm: csv row %d: want 4 fields, got %d", i+1, len(row))
		}
		off, err := strconv.Atoi(row[0])
		if err != nil {
			return nil, fmt.Errorf("evm: csv row %d: bad offset: %w", i+1, err)
		}
		op, ok := OpcodeByName(row[1])
		if !ok {
			var b byte
			if _, err := fmt.Sscanf(row[1], "UNKNOWN_0x%02X", &b); err != nil {
				return nil, fmt.Errorf("evm: csv row %d: unknown mnemonic %q", i+1, row[1])
			}
			op = Opcode(b)
		}
		in := Instruction{Offset: off, Op: op}
		if row[2] != "NaN" {
			operand, err := DecodeHex(row[2])
			if err != nil {
				return nil, fmt.Errorf("evm: csv row %d: bad operand: %w", i+1, err)
			}
			in.Operand = operand
		}
		// The gas column is redundant (a function of the opcode) but part of
		// the paper's dataset layout; validate it so round-trips are checked
		// rather than silently ignored.
		if row[3] == "NaN" {
			if g := op.Gas(); g != GasUndefined {
				return nil, fmt.Errorf("evm: csv row %d: gas NaN for %s, want %d", i+1, op.Name(), g)
			}
		} else {
			gas, err := strconv.Atoi(row[3])
			if err != nil {
				return nil, fmt.Errorf("evm: csv row %d: bad gas: %w", i+1, err)
			}
			if g := op.Gas(); gas != g {
				return nil, fmt.Errorf("evm: csv row %d: gas %d for %s, want %s", i+1, gas, op.Name(), in.GasString())
			}
		}
		ins = append(ins, in)
	}
	return ins, nil
}
