package emu

import (
	"glitchlab/internal/isa"
)

// Cycle costs follow the Cortex-M0: most instructions take 1 cycle, data
// accesses 2, taken branches 3, BL 4 (plus 1 per transferred register for
// the multi-register forms).
const (
	cycleALU         = 1
	cycleMem         = 2
	cycleBranchTaken = 3
	cycleBL          = 4
)

// CostOf predicts the cycle cost of executing in with the CPU's current
// flags (conditional-branch cost depends on whether the branch will be
// taken). The pipeline model uses this to map clock cycles to pipeline
// stages before an instruction executes.
func (c *CPU) CostOf(in isa.Inst) int {
	switch in.Op {
	case isa.OpBCond:
		if in.Cond.Holds(c.Flags) {
			return cycleBranchTaken
		}
		return cycleALU
	case isa.OpB, isa.OpBX, isa.OpBLX:
		return cycleBranchTaken
	case isa.OpBL:
		return cycleBL
	case isa.OpADDHi, isa.OpMOVHi:
		if in.Rd == isa.PC {
			return cycleBranchTaken
		}
		return cycleALU
	case isa.OpPUSH, isa.OpSTM:
		return int(1 + bitCount(in.Regs))
	case isa.OpPOP:
		n := int(1 + bitCount(in.Regs))
		if in.Regs&(1<<8) != 0 {
			n += 2
		}
		return n
	case isa.OpLDM:
		return int(1 + bitCount(in.Regs))
	default:
		if in.Op.IsLoad() || in.Op.IsStore() {
			return cycleMem
		}
		return cycleALU
	}
}

// exec executes a decoded instruction at pc and returns its cycle cost.
// It updates PC itself (advance or branch).
func (c *CPU) exec(pc uint32, in isa.Inst) (int, error) {
	next := pc + uint32(in.Size)
	cost := cycleALU
	branchTo := func(target uint32) {
		c.R[isa.PC] = target &^ 1
	}

	switch in.Op {
	case isa.OpLSLImm:
		v := c.reg(pc, in.Rm)
		if in.Imm != 0 {
			c.Flags.C = v&(1<<(32-in.Imm)) != 0
			v <<= in.Imm
		}
		c.R[in.Rd] = v
		c.setNZ(v)
	case isa.OpLSRImm:
		v := c.reg(pc, in.Rm)
		n := in.Imm
		if n == 0 {
			n = 32
		}
		if n == 32 {
			c.Flags.C = v&0x80000000 != 0
			v = 0
		} else {
			c.Flags.C = v&(1<<(n-1)) != 0
			v >>= n
		}
		c.R[in.Rd] = v
		c.setNZ(v)
	case isa.OpASRImm:
		v := c.reg(pc, in.Rm)
		n := in.Imm
		if n == 0 {
			n = 32
		}
		if n == 32 {
			c.Flags.C = v&0x80000000 != 0
			v = uint32(int32(v) >> 31)
		} else {
			c.Flags.C = v&(1<<(n-1)) != 0
			v = uint32(int32(v) >> n)
		}
		c.R[in.Rd] = v
		c.setNZ(v)
	case isa.OpADDReg:
		c.R[in.Rd] = c.addWithCarry(c.reg(pc, in.Rn), c.reg(pc, in.Rm), false)
	case isa.OpSUBReg:
		c.R[in.Rd] = c.addWithCarry(c.reg(pc, in.Rn), ^c.reg(pc, in.Rm), true)
	case isa.OpADDImm3:
		c.R[in.Rd] = c.addWithCarry(c.reg(pc, in.Rn), in.Imm, false)
	case isa.OpSUBImm3:
		c.R[in.Rd] = c.addWithCarry(c.reg(pc, in.Rn), ^in.Imm, true)
	case isa.OpMOVImm:
		c.R[in.Rd] = in.Imm
		c.setNZ(in.Imm)
	case isa.OpCMPImm:
		c.addWithCarry(c.reg(pc, in.Rn), ^in.Imm, true)
	case isa.OpADDImm8:
		c.R[in.Rd] = c.addWithCarry(c.R[in.Rd], in.Imm, false)
	case isa.OpSUBImm8:
		c.R[in.Rd] = c.addWithCarry(c.R[in.Rd], ^in.Imm, true)

	case isa.OpAND:
		v := c.R[in.Rd] & c.reg(pc, in.Rm)
		c.R[in.Rd] = v
		c.setNZ(v)
	case isa.OpEOR:
		v := c.R[in.Rd] ^ c.reg(pc, in.Rm)
		c.R[in.Rd] = v
		c.setNZ(v)
	case isa.OpLSLReg, isa.OpLSRReg, isa.OpASRReg, isa.OpRORReg:
		c.R[in.Rd] = c.shiftReg(in.Op, c.R[in.Rd], c.reg(pc, in.Rm))
	case isa.OpADC:
		c.R[in.Rd] = c.addWithCarry(c.R[in.Rd], c.reg(pc, in.Rm), c.Flags.C)
	case isa.OpSBC:
		c.R[in.Rd] = c.addWithCarry(c.R[in.Rd], ^c.reg(pc, in.Rm), c.Flags.C)
	case isa.OpTST:
		c.setNZ(c.reg(pc, in.Rn) & c.reg(pc, in.Rm))
	case isa.OpRSB:
		c.R[in.Rd] = c.addWithCarry(^c.reg(pc, in.Rn), 0, true)
	case isa.OpCMPReg, isa.OpCMPHi:
		c.addWithCarry(c.reg(pc, in.Rn), ^c.reg(pc, in.Rm), true)
	case isa.OpCMN:
		c.addWithCarry(c.reg(pc, in.Rn), c.reg(pc, in.Rm), false)
	case isa.OpORR:
		v := c.R[in.Rd] | c.reg(pc, in.Rm)
		c.R[in.Rd] = v
		c.setNZ(v)
	case isa.OpMUL:
		v := c.R[in.Rd] * c.reg(pc, in.Rm)
		c.R[in.Rd] = v
		c.setNZ(v)
	case isa.OpBIC:
		v := c.R[in.Rd] &^ c.reg(pc, in.Rm)
		c.R[in.Rd] = v
		c.setNZ(v)
	case isa.OpMVN:
		v := ^c.reg(pc, in.Rm)
		c.R[in.Rd] = v
		c.setNZ(v)

	case isa.OpADDHi:
		v := c.reg(pc, in.Rn) + c.reg(pc, in.Rm)
		if in.Rd == isa.PC {
			branchTo(v)
			return cycleBranchTaken, nil
		}
		c.R[in.Rd] = v
	case isa.OpMOVHi:
		v := c.reg(pc, in.Rm)
		if in.Rd == isa.PC {
			branchTo(v)
			return cycleBranchTaken, nil
		}
		c.R[in.Rd] = v
	case isa.OpBX:
		branchTo(c.reg(pc, in.Rm))
		return cycleBranchTaken, nil
	case isa.OpBLX:
		target := c.reg(pc, in.Rm)
		c.R[isa.LR] = (pc + 2) | 1
		branchTo(target)
		return cycleBranchTaken, nil

	case isa.OpLDRLit:
		addr := ((pc + 4) &^ 3) + in.Imm
		v, err := c.load(pc, addr, 4, false)
		if err != nil {
			return 0, err
		}
		c.R[in.Rd] = v
		cost = cycleMem
	case isa.OpLDRReg, isa.OpLDRImm, isa.OpLDRSP,
		isa.OpLDRBReg, isa.OpLDRBImm, isa.OpLDRSB,
		isa.OpLDRHReg, isa.OpLDRHImm, isa.OpLDRSH:
		addr, size, sign := c.effAddr(pc, in)
		v, err := c.load(pc, addr, size, sign)
		if err != nil {
			return 0, err
		}
		c.R[in.Rd] = v
		cost = cycleMem
	case isa.OpSTRReg, isa.OpSTRImm, isa.OpSTRSP,
		isa.OpSTRBReg, isa.OpSTRBImm, isa.OpSTRHReg, isa.OpSTRHImm:
		addr, size, _ := c.effAddr(pc, in)
		if err := c.store(pc, addr, size, c.R[in.Rd]); err != nil {
			return 0, err
		}
		cost = cycleMem

	case isa.OpADR:
		c.R[in.Rd] = ((pc + 4) &^ 3) + in.Imm
	case isa.OpADDSP:
		c.R[in.Rd] = c.R[isa.SP] + in.Imm
	case isa.OpADDSPImm:
		c.R[isa.SP] += in.Imm
	case isa.OpSUBSPImm:
		c.R[isa.SP] -= in.Imm

	case isa.OpSXTH:
		c.R[in.Rd] = uint32(int32(int16(c.reg(pc, in.Rm))))
	case isa.OpSXTB:
		c.R[in.Rd] = uint32(int32(int8(c.reg(pc, in.Rm))))
	case isa.OpUXTH:
		c.R[in.Rd] = c.reg(pc, in.Rm) & 0xffff
	case isa.OpUXTB:
		c.R[in.Rd] = c.reg(pc, in.Rm) & 0xff
	case isa.OpREV:
		v := c.reg(pc, in.Rm)
		c.R[in.Rd] = v<<24 | (v&0xff00)<<8 | (v>>8)&0xff00 | v>>24
	case isa.OpREV16:
		v := c.reg(pc, in.Rm)
		c.R[in.Rd] = (v&0xff)<<8 | (v>>8)&0xff | (v&0xff0000)<<8 | (v>>8)&0xff0000
	case isa.OpREVSH:
		v := c.reg(pc, in.Rm)
		c.R[in.Rd] = uint32(int32(int16(v<<8 | (v>>8)&0xff)))

	case isa.OpPUSH:
		n := bitCount(in.Regs)
		addr := c.R[isa.SP] - 4*n
		base := addr
		for r := isa.Reg(0); r < 8; r++ {
			if in.Regs&(1<<r) != 0 {
				if err := c.store(pc, addr, 4, c.R[r]); err != nil {
					return 0, err
				}
				addr += 4
			}
		}
		if in.Regs&(1<<8) != 0 {
			if err := c.store(pc, addr, 4, c.R[isa.LR]); err != nil {
				return 0, err
			}
		}
		c.R[isa.SP] = base
		cost = int(1 + n)
	case isa.OpPOP:
		addr := c.R[isa.SP]
		for r := isa.Reg(0); r < 8; r++ {
			if in.Regs&(1<<r) != 0 {
				v, err := c.load(pc, addr, 4, false)
				if err != nil {
					return 0, err
				}
				c.R[r] = v
				addr += 4
			}
		}
		popPC := in.Regs&(1<<8) != 0
		var target uint32
		if popPC {
			v, err := c.load(pc, addr, 4, false)
			if err != nil {
				return 0, err
			}
			target = v
			addr += 4
		}
		c.R[isa.SP] = addr
		cost = int(1 + bitCount(in.Regs))
		if popPC {
			branchTo(target)
			return cost + 2, nil
		}
	case isa.OpSTM:
		addr := c.R[in.Rn]
		for r := isa.Reg(0); r < 8; r++ {
			if in.Regs&(1<<r) != 0 {
				if err := c.store(pc, addr, 4, c.R[r]); err != nil {
					return 0, err
				}
				addr += 4
			}
		}
		c.R[in.Rn] = addr
		cost = int(1 + bitCount(in.Regs))
	case isa.OpLDM:
		addr := c.R[in.Rn]
		for r := isa.Reg(0); r < 8; r++ {
			if in.Regs&(1<<r) != 0 {
				v, err := c.load(pc, addr, 4, false)
				if err != nil {
					return 0, err
				}
				c.R[r] = v
				addr += 4
			}
		}
		if in.Regs&(1<<in.Rn) == 0 {
			c.R[in.Rn] = addr
		}
		cost = int(1 + bitCount(in.Regs))

	case isa.OpNOP, isa.OpCPS:
		// No effect.

	case isa.OpBCond:
		if in.Cond.Holds(c.Flags) {
			branchTo(in.BranchTarget(pc))
			return cycleBranchTaken, nil
		}
	case isa.OpB:
		branchTo(in.BranchTarget(pc))
		return cycleBranchTaken, nil
	case isa.OpBL:
		c.R[isa.LR] = (pc + 4) | 1
		branchTo(in.BranchTarget(pc))
		return cycleBL, nil

	case isa.OpUDF:
		return 0, &Fault{Kind: FaultUndefined, Addr: pc, PC: pc}
	case isa.OpBKPT:
		return 0, &Fault{Kind: FaultBreakpoint, Addr: pc, PC: pc}
	case isa.OpSVC:
		return 0, &Fault{Kind: FaultSupervisor, Addr: pc, PC: pc}

	default:
		return 0, &Fault{Kind: FaultInvalidInst, Addr: pc, PC: pc}
	}

	c.R[isa.PC] = next
	return cost, nil
}

// effAddr computes the effective address, access size and sign-extension
// flag for a load/store.
func (c *CPU) effAddr(pc uint32, in isa.Inst) (addr, size uint32, signExt bool) {
	switch in.Op {
	case isa.OpLDRReg, isa.OpSTRReg:
		return c.reg(pc, in.Rn) + c.reg(pc, in.Rm), 4, false
	case isa.OpLDRHReg, isa.OpSTRHReg:
		return c.reg(pc, in.Rn) + c.reg(pc, in.Rm), 2, false
	case isa.OpLDRBReg, isa.OpSTRBReg:
		return c.reg(pc, in.Rn) + c.reg(pc, in.Rm), 1, false
	case isa.OpLDRSB:
		return c.reg(pc, in.Rn) + c.reg(pc, in.Rm), 1, true
	case isa.OpLDRSH:
		return c.reg(pc, in.Rn) + c.reg(pc, in.Rm), 2, true
	case isa.OpLDRImm, isa.OpSTRImm:
		return c.reg(pc, in.Rn) + in.Imm, 4, false
	case isa.OpLDRBImm, isa.OpSTRBImm:
		return c.reg(pc, in.Rn) + in.Imm, 1, false
	case isa.OpLDRHImm, isa.OpSTRHImm:
		return c.reg(pc, in.Rn) + in.Imm, 2, false
	case isa.OpLDRSP, isa.OpSTRSP:
		return c.R[isa.SP] + in.Imm, 4, false
	}
	return 0, 4, false
}

// shiftReg implements register-amount shifts with their flag semantics.
func (c *CPU) shiftReg(op isa.Op, value, amount32 uint32) uint32 {
	amount := amount32 & 0xff
	v := value
	switch op {
	case isa.OpLSLReg:
		switch {
		case amount == 0:
		case amount < 32:
			c.Flags.C = v&(1<<(32-amount)) != 0
			v <<= amount
		case amount == 32:
			c.Flags.C = v&1 != 0
			v = 0
		default:
			c.Flags.C = false
			v = 0
		}
	case isa.OpLSRReg:
		switch {
		case amount == 0:
		case amount < 32:
			c.Flags.C = v&(1<<(amount-1)) != 0
			v >>= amount
		case amount == 32:
			c.Flags.C = v&0x80000000 != 0
			v = 0
		default:
			c.Flags.C = false
			v = 0
		}
	case isa.OpASRReg:
		switch {
		case amount == 0:
		case amount < 32:
			c.Flags.C = v&(1<<(amount-1)) != 0
			v = uint32(int32(v) >> amount)
		default:
			c.Flags.C = v&0x80000000 != 0
			v = uint32(int32(v) >> 31)
		}
	case isa.OpRORReg:
		if amount != 0 {
			n := amount % 32
			if n == 0 {
				c.Flags.C = v&0x80000000 != 0
			} else {
				v = v>>n | v<<(32-n)
				c.Flags.C = v&0x80000000 != 0
			}
		}
	}
	c.setNZ(v)
	return v
}

// Footprint reports the data-memory bytes [addr, addr+n) that executing
// in at pc with the CPU's current registers would load or store; n is 0
// for instructions that access no data memory.
func (c *CPU) Footprint(pc uint32, in isa.Inst) (addr, n uint32) {
	switch in.Op {
	case isa.OpLDRLit:
		return ((pc + 4) &^ 3) + in.Imm, 4
	case isa.OpPUSH:
		n = 4 * bitCount(in.Regs)
		return c.R[isa.SP] - n, n
	case isa.OpPOP:
		return c.R[isa.SP], 4 * bitCount(in.Regs)
	case isa.OpSTM, isa.OpLDM:
		return c.R[in.Rn], 4 * bitCount(in.Regs)
	}
	if in.Op.IsLoad() || in.Op.IsStore() {
		addr, n, _ = c.effAddr(pc, in)
		return addr, n
	}
	return 0, 0
}
