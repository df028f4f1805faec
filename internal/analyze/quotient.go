package analyze

import (
	"math"

	"glitchlab/internal/firmware"
	"glitchlab/internal/isa"
	"glitchlab/internal/passes"
	"glitchlab/internal/pipeline"
)

// DelayQuotient derives the seed-quotient fact for prog's random-delay
// routine (passes.DelayFunc), whose seed word lives at RAM address seed.
// It reports false when prog has no such routine or the routine cannot be
// proved to satisfy pipeline.SeedQuotient.
//
// The proof is an abstract execution of the routine from its entry that
// follows every path any seed can take. Registers start as unknown
// inputs; the seed word loads as an unknown seed-dependent value; values
// computed from it carry an unsigned interval, and a conditional branch
// on a comparison of such a value with a constant forks into the
// branch's two outcomes, each with the interval narrowed to it (an empty
// interval drops the path, a one-value interval makes it a constant).
// Paths are never merged, so every concrete execution is one explored
// path, and the routine terminates for every seed if the exploration
// does within its step bound. An instruction, memory access or branch
// condition outside this small domain fails the proof.
func DelayQuotient(prog *isa.Program, seed uint32) (pipeline.SeedQuotient, bool) {
	entry, ok := prog.SymbolAddr(passes.DelayFunc)
	if !ok || seed%4 != 0 {
		return pipeline.SeedQuotient{}, false
	}
	d := delayProof{prog: prog, seed: seed, entry: entry, end: entry}
	start := qstate{pc: entry}
	for r := range start.r {
		start.r[r] = qval{kind: qInput}
	}
	if !d.explore(start) || len(d.exits) == 0 {
		return pipeline.SeedQuotient{}, false
	}
	q := pipeline.SeedQuotient{Seed: seed, Entry: entry, End: d.end, Reads: d.reads}
	first := d.exits[0]
	for _, x := range d.exits[1:] {
		if x.flags != first.flags {
			return pipeline.SeedQuotient{}, false
		}
	}
	if first.flags.kind != qConst && first.flags.kind != qInput {
		return pipeline.SeedQuotient{}, false
	}
	for r := isa.Reg(0); r < isa.PC; r++ {
		v, same := first.r[r], true
		for _, x := range d.exits[1:] {
			same = same && x.r[r] == v
		}
		switch {
		case same && v.kind == qInput:
			// Unchanged.
		case same && v.kind == qConst:
			q.Clean |= 1 << r
		case r == isa.SP || r == isa.LR:
			return pipeline.SeedQuotient{}, false
		default:
			q.Tainted |= 1 << r
		}
	}
	return q, true
}

// delayProofSteps bounds the exploration: instructions executed over all
// paths. The emitted routine needs a few hundred.
const delayProofSteps = 20_000

// Abstract value kinds.
const (
	qInput uint8 = iota // unchanged since entry (for flags: the entry flags)
	qConst              // seed-independent constant lo (for flags: f)
	qSeed               // seed-dependent value in [lo, hi]
	qCmp                // flags only: cmp of register reg, in [lo, hi], with constant c
)

type qval struct {
	kind   uint8
	lo, hi uint32
}

type qflags struct {
	kind   uint8 // qInput, qConst, qSeed (unknown) or qCmp
	f      isa.Flags
	reg    isa.Reg
	lo, hi uint32
	c      uint32
}

type qstate struct {
	pc    uint32
	r     [16]qval
	flags qflags
}

type delayProof struct {
	prog  *isa.Program
	seed  uint32
	steps int
	entry uint32
	end   uint32 // one past the highest instruction byte explored
	reads uint16 // input registers read on any path
	exits []qstate
}

func seedVal(lo, hi uint32) qval {
	if lo == hi {
		return qval{kind: qConst, lo: lo, hi: lo}
	}
	return qval{kind: qSeed, lo: lo, hi: hi}
}

func constVal(v uint32) qval { return qval{kind: qConst, lo: v, hi: v} }

var fullSeed = qval{kind: qSeed, lo: 0, hi: math.MaxUint32}

// explore runs one path from st to its end, forking into explore calls at
// seed-dependent branches. It reports false if the proof fails.
func (d *delayProof) explore(st qstate) bool {
	for {
		if d.steps++; d.steps > delayProofSteps {
			return false
		}
		in, ok := d.prog.InstAt(st.pc)
		if !ok || in.Size != 2 || st.pc < d.entry || overlapsWord(st.pc, 2, firmware.SeedAddr) {
			return false
		}
		d.end = max(d.end, st.pc+2)
		next := st.pc + 2
		switch in.Op {
		case isa.OpNOP:
		case isa.OpB:
			next = in.BranchTarget(st.pc)
		case isa.OpBCond:
			taken, fall, ok := d.branch(&st, in.Cond)
			if !ok {
				return false
			}
			if taken != nil {
				taken.pc = in.BranchTarget(st.pc)
				if fall == nil {
					st = *taken
					continue
				}
				if !d.explore(*taken) {
					return false
				}
			}
			if fall == nil {
				return true
			}
			st = *fall
		case isa.OpBX:
			if in.Rm != isa.LR || st.r[isa.LR].kind != qInput {
				return false
			}
			d.reads |= 1 << isa.LR
			d.exits = append(d.exits, st)
			return true
		case isa.OpLDRLit:
			v, ok := d.literal(((st.pc + 4) &^ 3) + in.Imm)
			if !ok {
				return false
			}
			st.set(in.Rd, constVal(v))
		case isa.OpLDRImm:
			base, ok := d.get(&st, in.Rn)
			if !ok || base.kind != qConst {
				return false
			}
			addr := base.lo + in.Imm
			if addr == d.seed {
				st.set(in.Rd, fullSeed)
			} else if v, ok := d.literal(addr); ok {
				st.set(in.Rd, constVal(v))
			} else {
				return false
			}
		case isa.OpSTRImm:
			base, ok := d.get(&st, in.Rn)
			if !ok || base.kind != qConst || base.lo+in.Imm != d.seed {
				return false
			}
			if _, ok := d.get(&st, in.Rd); !ok {
				return false
			}
		default:
			if !d.alu(&st, in) {
				return false
			}
		}
		st.pc = next
	}
}

// get reads register r, noting reads of entry values. Only constants and
// seed-dependent values can be computed with; reading an input is
// allowed (and recorded) but yields nothing the domain can use.
func (d *delayProof) get(st *qstate, r isa.Reg) (qval, bool) {
	if r == isa.PC {
		return qval{}, false
	}
	v := st.r[r]
	if v.kind == qInput {
		d.reads |= 1 << r
		return v, false
	}
	return v, true
}

func (st *qstate) set(r isa.Reg, v qval) {
	st.r[r] = v
	if st.flags.kind == qCmp && st.flags.reg == r {
		st.flags = qflags{kind: qSeed}
	}
}

// literal reads a word of the image for a pc-relative or absolute load:
// it must lie in flash, away from the seed word the boot programs there.
func (d *delayProof) literal(addr uint32) (uint32, bool) {
	p := d.prog
	if addr%4 != 0 || addr < p.Base || uint64(addr)+4 > uint64(p.Base)+uint64(len(p.Code)) ||
		overlapsWord(addr, 4, firmware.SeedAddr) {
		return 0, false
	}
	o := addr - p.Base
	return uint32(p.Code[o]) | uint32(p.Code[o+1])<<8 | uint32(p.Code[o+2])<<16 | uint32(p.Code[o+3])<<24, true
}

func overlapsWord(a, n, w uint32) bool {
	return uint64(a) < uint64(w)+4 && uint64(w) < uint64(a)+uint64(n)
}

// alu applies a data-processing instruction: the moves, compares and
// arithmetic the delay routine uses. All-constant operands are evaluated
// exactly, flags included; a seed-dependent operand yields an interval
// and unknown flags, except that cmp against a constant keeps the
// comparison for branch to split on.
func (d *delayProof) alu(st *qstate, in isa.Inst) bool {
	var x, y qval
	var okx, oky bool
	switch in.Op {
	case isa.OpMOVImm:
		st.set(in.Rd, constVal(in.Imm))
		if st.flags.kind != qConst {
			st.flags = qflags{kind: qSeed}
		} else {
			st.flags.f.N, st.flags.f.Z = in.Imm&0x80000000 != 0, in.Imm == 0
		}
		return true
	case isa.OpCMPImm:
		if x, okx = d.get(st, in.Rn); !okx {
			return false
		}
		if x.kind == qConst {
			st.flags = qflags{kind: qConst, f: subFlags(x.lo, in.Imm)}
		} else {
			st.flags = qflags{kind: qCmp, reg: in.Rn, lo: x.lo, hi: x.hi, c: in.Imm}
		}
		return true
	case isa.OpADDImm8, isa.OpSUBImm8:
		x, okx = d.get(st, in.Rd)
		y, oky = constVal(in.Imm), true
	case isa.OpADDReg:
		x, okx = d.get(st, in.Rn)
		y, oky = d.get(st, in.Rm)
	case isa.OpAND, isa.OpMUL:
		x, okx = d.get(st, in.Rd)
		y, oky = d.get(st, in.Rm)
	case isa.OpLSRImm:
		x, okx = d.get(st, in.Rm)
		y, oky = constVal(in.Imm), in.Imm != 0
	default:
		return false
	}
	if !okx || !oky {
		return false
	}
	if x.kind == qSeed && y.kind == qSeed {
		st.set(in.Rd, fullSeed)
		st.flags = qflags{kind: qSeed}
		return true
	}
	if x.kind == qConst && y.kind == qConst {
		v, f := evalConst(in.Op, x.lo, y.lo, st.flags)
		st.set(in.Rd, constVal(v))
		st.flags = f
		return true
	}
	if x.kind == qConst { // every two-register op here commutes
		x, y = y, x
	}
	st.set(in.Rd, seedOp(in.Op, x, y.lo))
	st.flags = qflags{kind: qSeed}
	return true
}

// subFlags returns the flags of x - c (cmp, subs).
func subFlags(x, c uint32) isa.Flags {
	r := x - c
	return isa.Flags{
		N: r&0x80000000 != 0,
		Z: r == 0,
		C: x >= c,
		V: (x^c)&(x^r)&0x80000000 != 0,
	}
}

// evalConst evaluates a data-processing op on constants, returning the
// result and the flags it leaves.
func evalConst(op isa.Op, x, y uint32, prev qflags) (uint32, qflags) {
	var v uint32
	switch op {
	case isa.OpADDImm8, isa.OpADDReg:
		v = x + y
		return v, qflags{kind: qConst, f: isa.Flags{N: v&0x80000000 != 0, Z: v == 0,
			C: uint64(x)+uint64(y) > math.MaxUint32, V: ^(x^y)&(x^v)&0x80000000 != 0}}
	case isa.OpSUBImm8:
		return x - y, qflags{kind: qConst, f: subFlags(x, y)}
	case isa.OpLSRImm:
		v = x >> y
	case isa.OpAND:
		v = x & y
	case isa.OpMUL:
		v = x * y
	}
	// The rest set N and Z, the shift also C, and keep the other flags.
	if prev.kind != qConst {
		return v, qflags{kind: qSeed}
	}
	f := prev
	f.f.N, f.f.Z = v&0x80000000 != 0, v == 0
	if op == isa.OpLSRImm {
		f.f.C = x&(1<<(y-1)) != 0
	}
	return v, f
}

// seedOp bounds a data-processing op on a seed-dependent value in x and
// the constant c.
func seedOp(op isa.Op, x qval, c uint32) qval {
	switch op {
	case isa.OpADDImm8, isa.OpADDReg:
		if uint64(x.hi)+uint64(c) <= math.MaxUint32 {
			return seedVal(x.lo+c, x.hi+c)
		}
	case isa.OpSUBImm8:
		if x.lo >= c {
			return seedVal(x.lo-c, x.hi-c)
		}
	case isa.OpAND:
		return seedVal(0, min(x.hi, c))
	case isa.OpLSRImm:
		return seedVal(x.lo>>c, x.hi>>c)
	}
	return fullSeed
}

// branch splits a path at a conditional branch: the states that take it
// and that fall through, nil where no seed leads. Branching on anything
// but constant flags or an eq/ne/cs/cc test of a seed-dependent value's
// comparison with a constant fails the proof.
func (d *delayProof) branch(st *qstate, cond isa.Cond) (taken, fall *qstate, ok bool) {
	switch st.flags.kind {
	case qConst:
		s := *st
		if cond.Holds(st.flags.f) {
			return &s, nil, true
		}
		return nil, &s, true
	case qCmp:
	default:
		return nil, nil, false
	}
	fl := st.flags
	// The values v in [lo, hi] for which cond holds after cmp v, c.
	var tlo, thi uint64 = 1, 0 // empty
	var flo, fhi uint64 = 1, 0
	lo, hi, c := uint64(fl.lo), uint64(fl.hi), uint64(fl.c)
	switch cond {
	case isa.EQ, isa.NE:
		tlo, thi = max(lo, c), min(hi, c)
		// The values other than c form one interval only when c is at
		// an edge; otherwise keep the whole range (sound, less precise).
		flo, fhi = lo, hi
		if c == lo {
			flo++
		} else if c == hi {
			fhi--
		}
		if cond == isa.NE {
			tlo, thi, flo, fhi = flo, fhi, tlo, thi
		}
	case isa.CS, isa.CC: // v >= c, v < c
		tlo, thi = max(lo, c), hi
		if c > 0 {
			flo, fhi = lo, min(hi, c-1)
		}
		if cond == isa.CC {
			tlo, thi, flo, fhi = flo, fhi, tlo, thi
		}
	default:
		return nil, nil, false
	}
	narrow := func(a, b uint64) *qstate {
		if a > b {
			return nil
		}
		s := *st
		s.r[fl.reg] = seedVal(uint32(a), uint32(b))
		if a == b {
			s.flags = qflags{kind: qConst, f: subFlags(uint32(a), fl.c)}
		} else {
			s.flags.lo, s.flags.hi = uint32(a), uint32(b)
		}
		return &s
	}
	return narrow(tlo, thi), narrow(flo, fhi), true
}
