//! Operator semantics shared by the interpreter and the JIT.
//!
//! Keeping these in one place is part of the paper's implementation
//! discipline: the JIT is a specialization of the interpreter, so the two
//! must share every semantic definition.

use crate::value::{exn, ScalarTy, Value, VmError};
use planp_lang::ast::{BinOp, UnOp};

/// Evaluates a strict binary operator (everything except the
/// short-circuiting `andalso`/`orelse`, which the evaluators handle
/// control-flow-wise).
///
/// # Errors
///
/// `div`/`mod` raise `Div` on a zero divisor; comparisons trap on
/// non-comparable values (unreachable for checked programs).
pub fn eval_binop(op: BinOp, a: &Value, b: &Value) -> Result<Value, VmError> {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div | Mod => {
            scalar_binop(op, ScalarTy::Int.read(a)?, ScalarTy::Int.read(b)?)
        }
        Concat => match (a, b) {
            (Value::Str(x), Value::Str(y)) => {
                let mut s = String::with_capacity(x.len() + y.len());
                s.push_str(x);
                s.push_str(y);
                Ok(Value::Str(s.into()))
            }
            _ => Err(VmError::trap("`^` on non-strings")),
        },
        Eq => equality(a, b).map(Value::Bool),
        Ne => equality(a, b).map(|r| Value::Bool(!r)),
        Lt | Le | Gt | Ge => holds(op, ordering(a, b)?).map(Value::Bool),
        And | Or => Err(VmError::trap("short-circuit operator reached eval_binop")),
    }
}

/// [`eval_binop`] on two unwrapped scalars of one type (see
/// [`crate::value::ScalarTy`]): arithmetic on `int`s, or a comparison.
///
/// # Errors
///
/// `div`/`mod` raise `Div` on a zero divisor; an operator that takes
/// no scalars traps.
#[inline(always)]
pub fn scalar_binop(op: BinOp, x: i64, y: i64) -> Result<Value, VmError> {
    use BinOp::*;
    let n = match op {
        Add => x.wrapping_add(y),
        Sub => x.wrapping_sub(y),
        Mul => x.wrapping_mul(y),
        Div | Mod if y == 0 => return Err(VmError::Exn(exn::DIV)),
        Div => x.wrapping_div(y),
        Mod => x.wrapping_rem(y),
        _ => return holds(op, x.cmp(&y)).map(Value::Bool),
    };
    Ok(Value::Int(n))
}

/// Whether comparison `op` holds of two operands ordered `ord`.
///
/// # Errors
///
/// Traps on an operator that is not a comparison.
#[inline(always)]
pub fn holds(op: BinOp, ord: std::cmp::Ordering) -> Result<bool, VmError> {
    use BinOp::*;
    match op {
        Eq => Ok(ord.is_eq()),
        Ne => Ok(ord.is_ne()),
        Lt => Ok(ord.is_lt()),
        Le => Ok(ord.is_le()),
        Gt => Ok(ord.is_gt()),
        Ge => Ok(ord.is_ge()),
        _ => Err(VmError::trap(format!("`{op:?}` is not a comparison"))),
    }
}

/// Evaluates a unary operator.
pub fn eval_unop(op: UnOp, a: &Value) -> Result<Value, VmError> {
    unop_operand(op).read(a).map(|x| scalar_unop(op, x))
}

/// The type of `op`'s operand.
pub fn unop_operand(op: UnOp) -> ScalarTy {
    match op {
        UnOp::Not => ScalarTy::Bool,
        UnOp::Neg => ScalarTy::Int,
    }
}

/// [`eval_unop`] on the unwrapped operand: a `bool` (0 or 1) for `not`,
/// an `int` for negation.
#[inline(always)]
pub fn scalar_unop(op: UnOp, x: i64) -> Value {
    match op {
        UnOp::Not => Value::Bool(x == 0),
        UnOp::Neg => Value::Int(x.wrapping_neg()),
    }
}

fn equality(a: &Value, b: &Value) -> Result<bool, VmError> {
    a.struct_eq(b)
        .ok_or_else(|| VmError::trap("equality on non-equality type"))
}

fn ordering(a: &Value, b: &Value) -> Result<std::cmp::Ordering, VmError> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(x.cmp(y)),
        (Value::Char(x), Value::Char(y)) => Ok(x.cmp(y)),
        (Value::Str(x), Value::Str(y)) => Ok(x.cmp(y)),
        _ => Err(VmError::trap("ordering on unordered type")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        assert_eq!(
            eval_binop(BinOp::Add, &Value::Int(2), &Value::Int(3)),
            Ok(Value::Int(5))
        );
        assert_eq!(
            eval_binop(BinOp::Div, &Value::Int(7), &Value::Int(2)),
            Ok(Value::Int(3))
        );
        assert_eq!(
            eval_binop(BinOp::Mod, &Value::Int(7), &Value::Int(2)),
            Ok(Value::Int(1))
        );
        assert_eq!(
            eval_binop(BinOp::Div, &Value::Int(7), &Value::Int(0)),
            Err(VmError::Exn(exn::DIV))
        );
    }

    #[test]
    fn int_min_div_does_not_panic() {
        assert_eq!(
            eval_binop(BinOp::Div, &Value::Int(i64::MIN), &Value::Int(-1)),
            Ok(Value::Int(i64::MIN))
        );
    }

    #[test]
    fn arithmetic_wraps_at_extremes() {
        // PLAN-P ints are 64-bit two's complement with wrapping
        // arithmetic (no run-time overflow faults in the packet path).
        assert_eq!(
            eval_binop(BinOp::Add, &Value::Int(i64::MAX), &Value::Int(1)),
            Ok(Value::Int(i64::MIN))
        );
        assert_eq!(
            eval_binop(BinOp::Mul, &Value::Int(i64::MAX), &Value::Int(2)),
            Ok(Value::Int(-2))
        );
        assert_eq!(
            eval_unop(UnOp::Neg, &Value::Int(i64::MIN)),
            Ok(Value::Int(i64::MIN))
        );
    }

    #[test]
    fn type_confusion_traps_not_panics() {
        assert!(matches!(
            eval_binop(BinOp::Add, &Value::Bool(true), &Value::Int(1)),
            Err(VmError::Trap(_))
        ));
        assert!(matches!(
            eval_binop(BinOp::Lt, &Value::Bool(true), &Value::Bool(false)),
            Err(VmError::Trap(_))
        ));
        assert!(matches!(
            eval_unop(UnOp::Not, &Value::Int(0)),
            Err(VmError::Trap(_))
        ));
    }

    #[test]
    fn concat_and_compare() {
        assert_eq!(
            eval_binop(BinOp::Concat, &Value::str("ab"), &Value::str("cd")),
            Ok(Value::str("abcd"))
        );
        assert_eq!(
            eval_binop(BinOp::Lt, &Value::str("a"), &Value::str("b")),
            Ok(Value::Bool(true))
        );
        assert_eq!(
            eval_binop(BinOp::Ge, &Value::Char('b'), &Value::Char('b')),
            Ok(Value::Bool(true))
        );
    }

    #[test]
    fn equality_structural() {
        let t1 = Value::tuple(vec![Value::Int(1), Value::Host(9)]);
        let t2 = Value::tuple(vec![Value::Int(1), Value::Host(9)]);
        assert_eq!(eval_binop(BinOp::Eq, &t1, &t2), Ok(Value::Bool(true)));
        assert_eq!(eval_binop(BinOp::Ne, &t1, &t2), Ok(Value::Bool(false)));
    }

    #[test]
    fn unops() {
        assert_eq!(
            eval_unop(UnOp::Not, &Value::Bool(true)),
            Ok(Value::Bool(false))
        );
        assert_eq!(eval_unop(UnOp::Neg, &Value::Int(5)), Ok(Value::Int(-5)));
    }
}
