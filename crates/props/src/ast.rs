//! Property AST and per-cycle evaluation.

use symbfuzz_hdl::{BinaryOp, UnaryOp};
use symbfuzz_logic::{Bit, LogicVec};
use symbfuzz_netlist::SignalId;

/// A compiled property expression. Signals are resolved to
/// [`SignalId`]s at parse time, constants are folded to values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PExpr {
    /// A constant value.
    Const(LogicVec),
    /// A sampled signal value.
    Sig(SignalId),
    /// `$past(expr, depth)` — the value `depth` cycles ago.
    Past {
        /// Sampled expression.
        expr: Box<PExpr>,
        /// How many cycles back (≥ 1).
        depth: u32,
    },
    /// `$isunknown(expr)` — 1 iff any bit is `X`/`Z`.
    IsUnknown(Box<PExpr>),
    /// `$stable(expr)` — value identical (case equality) to one cycle ago.
    Stable(Box<PExpr>),
    /// `$rose(expr)` — bit 0 went 0→1 since the previous cycle.
    Rose(Box<PExpr>),
    /// `$fell(expr)` — bit 0 went 1→0 since the previous cycle.
    Fell(Box<PExpr>),
    /// Unary operator (same set as the HDL).
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: Box<PExpr>,
    },
    /// Binary operator (same set as the HDL).
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<PExpr>,
        /// Right operand.
        rhs: Box<PExpr>,
    },
    /// `cond ? then : els`.
    Ternary {
        /// Condition.
        cond: Box<PExpr>,
        /// Value when true.
        then: Box<PExpr>,
        /// Value when false.
        els: Box<PExpr>,
    },
    /// `sig[bit]` with a constant index (relative to the signal value).
    Index {
        /// Base expression.
        base: Box<PExpr>,
        /// Bit index.
        bit: u32,
    },
    /// `sig[msb:lsb]` with constant bounds.
    Slice {
        /// Base expression.
        base: Box<PExpr>,
        /// Most significant bit.
        msb: u32,
        /// Least significant bit.
        lsb: u32,
    },
    /// `{a, b, …}` concatenation, element 0 most significant.
    Concat(Vec<PExpr>),
}

/// A named property: optional antecedent `|->` consequent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Property {
    name: String,
    source: String,
    /// Antecedent, if the property is an implication.
    pub(crate) antecedent: Option<PExpr>,
    /// The consequent (or the whole expression).
    pub(crate) consequent: PExpr,
    /// Maximum `$past` depth referenced anywhere (history needed).
    pub(crate) depth: u32,
}

impl Property {
    pub(crate) fn new(
        name: String,
        source: String,
        antecedent: Option<PExpr>,
        consequent: PExpr,
    ) -> Property {
        let mut depth = 0;
        if let Some(a) = &antecedent {
            depth = depth.max(max_depth(a));
        }
        depth = depth.max(max_depth(&consequent));
        Property {
            name,
            source,
            antecedent,
            consequent,
            depth,
        }
    }

    /// The property's name (used in violation reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// History depth (cycles of `$past`) this property needs.
    pub fn history_depth(&self) -> u32 {
        self.depth
    }

    /// Evaluates the property at the newest frame of `frames`
    /// (`frames[len-1]` is "now", `frames[len-1-n]` is `$past` by `n`).
    /// Returns `true` when the property holds or is vacuous.
    ///
    /// This full-frame form is the reference semantics; the
    /// [`PropertyChecker`](crate::PropertyChecker) evaluates the same
    /// expressions over its watched-signal window.
    pub fn holds(&self, frames: &[Vec<LogicVec>]) -> bool {
        self.holds_in(frames)
    }

    /// [`holds`](Self::holds) over any frame source.
    pub(crate) fn holds_in<F: Frames + ?Sized>(&self, frames: &F) -> bool {
        let t = frames.len() - 1;
        if let Some(a) = &self.antecedent {
            match eval(a, frames, t) {
                Some(v) if v.to_condition() == Bit::One => {}
                // Antecedent false, X, or out of history: vacuous pass.
                _ => return true,
            }
        }
        match eval(&self.consequent, frames, t) {
            // Out-of-history $past in the consequent: vacuous pass.
            None => true,
            Some(v) => v.to_condition() == Bit::One,
        }
    }

    /// Every signal the property reads (unsorted, may repeat).
    pub(crate) fn signals(&self) -> Vec<SignalId> {
        let mut out = Vec::new();
        if let Some(a) = &self.antecedent {
            collect_signals(a, &mut out);
        }
        collect_signals(&self.consequent, &mut out);
        out
    }
}

/// Sampled signal values over a run of consecutive cycles: frame
/// `len() - 1` is "now", frame `len() - 1 - n` is `n` cycles earlier.
pub(crate) trait Frames {
    /// Number of frames available (at least 1).
    fn len(&self) -> usize;
    /// Value of `s` in frame `t`.
    fn get(&self, t: usize, s: SignalId) -> &LogicVec;
}

/// Full value tables, one per cycle.
impl Frames for [Vec<LogicVec>] {
    fn len(&self) -> usize {
        <[Vec<LogicVec>]>::len(self)
    }

    fn get(&self, t: usize, s: SignalId) -> &LogicVec {
        &self[t][s.index()]
    }
}

fn max_depth(e: &PExpr) -> u32 {
    match e {
        PExpr::Const(_) | PExpr::Sig(_) => 0,
        PExpr::Past { expr, depth } => depth + max_depth(expr),
        PExpr::IsUnknown(a) | PExpr::Unary { operand: a, .. } => max_depth(a),
        PExpr::Stable(a) | PExpr::Rose(a) | PExpr::Fell(a) => 1 + max_depth(a),
        PExpr::Binary { lhs, rhs, .. } => max_depth(lhs).max(max_depth(rhs)),
        PExpr::Ternary { cond, then, els } => {
            max_depth(cond).max(max_depth(then)).max(max_depth(els))
        }
        PExpr::Index { base, .. } | PExpr::Slice { base, .. } => max_depth(base),
        PExpr::Concat(parts) => parts.iter().map(max_depth).max().unwrap_or(0),
    }
}

fn collect_signals(e: &PExpr, out: &mut Vec<SignalId>) {
    match e {
        PExpr::Const(_) => {}
        PExpr::Sig(s) => out.push(*s),
        PExpr::Past { expr: a, .. }
        | PExpr::IsUnknown(a)
        | PExpr::Stable(a)
        | PExpr::Rose(a)
        | PExpr::Fell(a)
        | PExpr::Unary { operand: a, .. }
        | PExpr::Index { base: a, .. }
        | PExpr::Slice { base: a, .. } => collect_signals(a, out),
        PExpr::Binary { lhs, rhs, .. } => {
            collect_signals(lhs, out);
            collect_signals(rhs, out);
        }
        PExpr::Ternary { cond, then, els } => {
            collect_signals(cond, out);
            collect_signals(then, out);
            collect_signals(els, out);
        }
        PExpr::Concat(parts) => parts.iter().for_each(|p| collect_signals(p, out)),
    }
}

/// Evaluates at frame index `t`; `None` when `$past` reaches before the
/// first frame (vacuous).
fn eval<F: Frames + ?Sized>(e: &PExpr, frames: &F, t: usize) -> Option<LogicVec> {
    match e {
        PExpr::Const(v) => Some(v.clone()),
        PExpr::Sig(s) => Some(frames.get(t, *s).clone()),
        PExpr::Past { expr, depth } => {
            let d = *depth as usize;
            if t < d {
                return None;
            }
            eval(expr, frames, t - d)
        }
        PExpr::IsUnknown(a) => {
            let v = eval(a, frames, t)?;
            Some(LogicVec::from_u64(1, v.has_unknown() as u64))
        }
        PExpr::Stable(a) => {
            if t < 1 {
                return None;
            }
            let now = eval(a, frames, t)?;
            let before = eval(a, frames, t - 1)?;
            Some(LogicVec::from_u64(1, now.case_eq(&before) as u64))
        }
        PExpr::Rose(a) => {
            if t < 1 {
                return None;
            }
            let now = eval(a, frames, t)?;
            let before = eval(a, frames, t - 1)?;
            Some(LogicVec::from_u64(
                1,
                (before.bit(0) == Bit::Zero && now.bit(0) == Bit::One) as u64,
            ))
        }
        PExpr::Fell(a) => {
            if t < 1 {
                return None;
            }
            let now = eval(a, frames, t)?;
            let before = eval(a, frames, t - 1)?;
            Some(LogicVec::from_u64(
                1,
                (before.bit(0) == Bit::One && now.bit(0) == Bit::Zero) as u64,
            ))
        }
        PExpr::Unary { op, operand } => {
            let v = eval(operand, frames, t)?;
            Some(match op {
                UnaryOp::LogNot => LogicVec::from_bit(!v.to_condition()),
                UnaryOp::BitNot => !&v,
                UnaryOp::RedAnd => LogicVec::from_bit(v.reduce_and()),
                UnaryOp::RedOr => LogicVec::from_bit(v.reduce_or()),
                UnaryOp::RedXor => LogicVec::from_bit(v.reduce_xor()),
                UnaryOp::RedNand => LogicVec::from_bit(!v.reduce_and()),
                UnaryOp::RedNor => LogicVec::from_bit(!v.reduce_or()),
                UnaryOp::Neg => v.neg(),
            })
        }
        PExpr::Binary { op, lhs, rhs } => {
            let a = eval(lhs, frames, t)?;
            let b = eval(rhs, frames, t)?;
            Some(match op {
                BinaryOp::Add => a.add(&b),
                BinaryOp::Sub => a.sub(&b),
                BinaryOp::Mul => a.mul(&b),
                BinaryOp::And => &a & &b,
                BinaryOp::Or => &a | &b,
                BinaryOp::Xor => &a ^ &b,
                BinaryOp::LogAnd => LogicVec::from_bit(a.to_condition() & b.to_condition()),
                BinaryOp::LogOr => LogicVec::from_bit(a.to_condition() | b.to_condition()),
                BinaryOp::Eq => LogicVec::from_bit(a.logic_eq(&b)),
                BinaryOp::Ne => LogicVec::from_bit(!a.logic_eq(&b)),
                BinaryOp::CaseEq => LogicVec::from_u64(1, a.case_eq(&b) as u64),
                BinaryOp::CaseNe => LogicVec::from_u64(1, !a.case_eq(&b) as u64),
                BinaryOp::Lt => LogicVec::from_bit(a.ult(&b)),
                BinaryOp::Le => LogicVec::from_bit(a.ule(&b)),
                BinaryOp::Gt => LogicVec::from_bit(b.ult(&a)),
                BinaryOp::Ge => LogicVec::from_bit(b.ule(&a)),
                BinaryOp::Shl => a.shl_vec(&b),
                BinaryOp::Shr => a.lshr_vec(&b),
            })
        }
        PExpr::Ternary { cond, then, els } => {
            let c = eval(cond, frames, t)?;
            match c.to_condition() {
                Bit::One => eval(then, frames, t),
                Bit::Zero => eval(els, frames, t),
                _ => Some(LogicVec::xes(1)),
            }
        }
        PExpr::Index { base, bit } => {
            let v = eval(base, frames, t)?;
            if *bit < v.width() {
                Some(LogicVec::from_bit(v.bit(*bit)))
            } else {
                Some(LogicVec::from_bit(Bit::X))
            }
        }
        PExpr::Slice { base, msb, lsb } => {
            let v = eval(base, frames, t)?;
            if *msb < v.width() && lsb <= msb {
                Some(v.slice(*lsb, msb - lsb + 1))
            } else {
                Some(LogicVec::xes(msb - lsb + 1))
            }
        }
        PExpr::Concat(parts) => {
            let mut out = LogicVec::zeros(0);
            for p in parts {
                let v = eval(p, frames, t)?;
                out = LogicVec::concat(&out, &v);
            }
            Some(out)
        }
    }
}
