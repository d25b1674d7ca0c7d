//! The word-level bytecode executor — the compiled settle kernel.
//!
//! Runs a [`WordCode`] body over a `u64` register file, reading and
//! writing signal values through the packed two-state word view of
//! `LogicVec` ([`word`](LogicVec::word) / [`set_word`](LogicVec::set_word)).
//!
//! The dispatcher (`Simulator::comb_compiled` and the sequential-edge
//! loop in `clock_phase`) only enters this executor after the per-cone
//! X-island check: every signal in `WordCode::reads` must currently be
//! free of X/Z bits. Under that precondition each op is a bit-exact
//! word-level translation of the interpreter's `LogicVec` evaluation,
//! and no store can introduce an unknown — partial stores clear the
//! written span's unknown-plane bits and leave the rest untouched,
//! exactly as the interpreter's bit-loop would on a definite value.
//!
//! Stores replicate the interpreter's compare-and-set: a value change
//! marks the signal dirty, driving the compiled sweep's unit
//! skipping. Non-blocking stores queue into the shared NBA list, so
//! commit ordering against interpreted (escaped) processes in the same
//! phase is preserved.

use crate::simulator::{Nba, NbaValue, Simulator};
use symbfuzz_netlist::{BranchId, Op, SignalId, WordCode};

impl Simulator {
    /// Executes one compiled process body.
    ///
    /// Precondition: every signal in `code.reads` has a zero unknown
    /// plane (checked by the caller's X-island test).
    pub(crate) fn exec_wordcode(&mut self, code: &WordCode, nba: &mut Vec<Nba>) {
        let mut regs = std::mem::take(&mut self.scratch_regs);
        regs.clear();
        regs.resize(code.nregs as usize, 0);
        let ops = &code.ops;
        let mut pc = 0usize;
        while pc < ops.len() {
            match ops[pc] {
                Op::Imm { dst, val } => regs[dst as usize] = val,
                Op::Load { dst, sig } => regs[dst as usize] = self.values[sig as usize].word(),
                Op::LoadPart { dst, sig, lo, mask } => {
                    regs[dst as usize] = (self.values[sig as usize].word() >> lo) & mask;
                }
                Op::LoadBit { dst, sig, idx } => {
                    regs[dst as usize] =
                        (self.values[sig as usize].word() >> regs[idx as usize]) & 1;
                }
                Op::Not { dst, a, mask } => regs[dst as usize] = !regs[a as usize] & mask,
                Op::Neg { dst, a, mask } => {
                    regs[dst as usize] = regs[a as usize].wrapping_neg() & mask;
                }
                Op::RedAnd { dst, a, mask } => {
                    regs[dst as usize] = (regs[a as usize] == mask) as u64;
                }
                Op::RedOr { dst, a } => regs[dst as usize] = (regs[a as usize] != 0) as u64,
                Op::RedXor { dst, a } => {
                    regs[dst as usize] = (regs[a as usize].count_ones() & 1) as u64;
                }
                Op::EqZero { dst, a } => regs[dst as usize] = (regs[a as usize] == 0) as u64,
                Op::And { dst, a, b } => {
                    regs[dst as usize] = regs[a as usize] & regs[b as usize];
                }
                Op::Or { dst, a, b } => regs[dst as usize] = regs[a as usize] | regs[b as usize],
                Op::Xor { dst, a, b } => {
                    regs[dst as usize] = regs[a as usize] ^ regs[b as usize];
                }
                Op::AndImm { dst, a, imm } => regs[dst as usize] = regs[a as usize] & imm,
                Op::Add { dst, a, b, mask } => {
                    regs[dst as usize] = regs[a as usize].wrapping_add(regs[b as usize]) & mask;
                }
                Op::Sub { dst, a, b, mask } => {
                    regs[dst as usize] = regs[a as usize].wrapping_sub(regs[b as usize]) & mask;
                }
                Op::Mul { dst, a, b, mask } => {
                    regs[dst as usize] = regs[a as usize].wrapping_mul(regs[b as usize]) & mask;
                }
                Op::Eq { dst, a, b } => {
                    regs[dst as usize] = (regs[a as usize] == regs[b as usize]) as u64;
                }
                Op::Ne { dst, a, b } => {
                    regs[dst as usize] = (regs[a as usize] != regs[b as usize]) as u64;
                }
                Op::Lt { dst, a, b } => {
                    regs[dst as usize] = (regs[a as usize] < regs[b as usize]) as u64;
                }
                Op::Le { dst, a, b } => {
                    regs[dst as usize] = (regs[a as usize] <= regs[b as usize]) as u64;
                }
                Op::Shl {
                    dst,
                    a,
                    amt,
                    w,
                    mask,
                } => {
                    let n = regs[amt as usize];
                    regs[dst as usize] = if n >= w as u64 {
                        0
                    } else {
                        (regs[a as usize] << n) & mask
                    };
                }
                Op::Shr {
                    dst,
                    a,
                    amt,
                    w,
                    mask,
                } => {
                    let n = regs[amt as usize];
                    regs[dst as usize] = if n >= w as u64 {
                        0
                    } else {
                        (regs[a as usize] >> n) & mask
                    };
                }
                Op::ShlImm { dst, a, sh, mask } => {
                    regs[dst as usize] = (regs[a as usize] << sh) & mask;
                }
                Op::ShrImm { dst, a, sh, mask } => {
                    regs[dst as usize] = (regs[a as usize] >> sh) & mask;
                }
                Op::Mux { dst, c, t, e } => {
                    regs[dst as usize] = if regs[c as usize] != 0 {
                        regs[t as usize]
                    } else {
                        regs[e as usize]
                    };
                }
                Op::Jmp { target } => {
                    pc = target as usize;
                    continue;
                }
                Op::Jz { c, target } => {
                    if regs[c as usize] == 0 {
                        pc = target as usize;
                        continue;
                    }
                }
                Op::Jnz { c, target } => {
                    if regs[c as usize] != 0 {
                        pc = target as usize;
                        continue;
                    }
                }
                Op::Record { branch, outcome } => self.record_branch(BranchId(branch), outcome),
                Op::Store { sig, src, mask } => {
                    self.store_word(sig, regs[src as usize] & mask);
                }
                Op::StorePart { sig, src, lo, mask } => {
                    self.store_part_word(sig, lo, mask, regs[src as usize] & mask);
                }
                Op::StoreBit { sig, src, idx } => {
                    self.store_part_word(sig, regs[idx as usize] as u32, 1, regs[src as usize] & 1);
                }
                Op::NbaStore {
                    sig,
                    src,
                    lo,
                    width,
                    mask,
                } => nba.push(Nba {
                    sig: SignalId(sig),
                    lo,
                    width,
                    value: NbaValue::Word(regs[src as usize] & mask),
                    smear_x: false,
                }),
                Op::NbaStoreBit { sig, src, idx } => nba.push(Nba {
                    sig: SignalId(sig),
                    lo: regs[idx as usize] as u32,
                    width: 1,
                    value: NbaValue::Word(regs[src as usize] & 1),
                    smear_x: false,
                }),
            }
            pc += 1;
        }
        self.scratch_regs = regs;
    }

    /// Whole-signal two-state store with the interpreter's
    /// compare-and-set + dirty-marking. `v` is pre-masked to the
    /// signal width.
    #[inline]
    fn store_word(&mut self, sig: u32, v: u64) {
        let idx = sig as usize;
        let cur = &self.values[idx];
        if cur.word() != v || cur.unk_word() != 0 {
            self.values[idx].set_word(v, 0);
            self.dirty[idx] = true;
        }
    }

    /// Part store: replaces `popcount(mask)` bits at `lo`, clearing
    /// their unknown-plane bits and leaving the rest of the signal —
    /// including any X/Z outside the span — untouched.
    #[inline]
    fn store_part_word(&mut self, sig: u32, lo: u32, mask: u64, v: u64) {
        let idx = sig as usize;
        let cur = &self.values[idx];
        let m = mask << lo;
        let nval = (cur.word() & !m) | (v << lo);
        let nunk = cur.unk_word() & !m;
        if cur.word() != nval || cur.unk_word() != nunk {
            self.values[idx].set_word(nval, nunk);
            self.dirty[idx] = true;
        }
    }
}
