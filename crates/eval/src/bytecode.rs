//! Flat postfix bytecode: the one evaluator of Core expressions.
//!
//! [`compile`] flattens a [`CoreExpr`] tree into a `Vec<Instr>` once — the
//! first time `Evaluator::expr` sees the expression — so the per-row cost
//! is a tight loop over a slice with an explicit value stack: no
//! recursion, no re-dispatch on structure that never changes between
//! rows. There is no second evaluator: every `CoreExpr` compiles, so
//! `compile` is infallible and the VM in `interp.rs` (`exec_program`) is
//! the only place expression semantics dispatch. The NULL/MISSING tables
//! themselves live in the value-level helpers the VM calls
//! (`binop_values`, `compare_values`, `like_values`, `in_values`).
//!
//! ## ISA shape
//!
//! Instructions are postfix: operands are evaluated left-to-right onto the
//! stack and the operator pops them. Control flow (AND/OR short-circuit,
//! CASE arms, the IN missing-needle rule) uses absolute-target jumps that
//! the compiler back-patches. A program borrows its plan (`'p`): names,
//! constants and nested plans are references, and the borrow is what
//! makes the evaluator's address-keyed program cache sound — a cached
//! expression cannot be freed while its program is alive.
//!
//! ## Leaf operands
//!
//! A constant, a parameter, a variable or static attribute steps off one
//! (`t.x`, `t.addr.city`) is a *leaf* ([`Operand`]). The comparison,
//! arithmetic and test instructions (`Bin`, `Is`, `Between`, `Like`,
//! `InCollection`) take each operand either off the stack or as a leaf
//! that the VM reads in place (`Evaluator::operand`): a reference into
//! the row, the environment, the parameters or the plan, never a clone.
//! The compiler reads a leaf in place only when every operand after it is
//! a leaf too, so stacked operands come first and operands are still read
//! left to right. [`Instr::Push`] is the one place a leaf is cloned, for
//! values the program hands on (outputs, constructors, call arguments).
//!
//! ## Call instructions
//!
//! Plan-valued expressions — scalar/bag subqueries, `EXISTS`,
//! `IN (SELECT …)`, and `COLL_*` over any element-producing bag subquery
//! — compile to *call* instructions that hand the nested plan to the
//! evaluator's stream machinery (`subquery_stream` / `run_in`) with the
//! current environment as the outer scope. They sit behind the same jumps
//! as any operand, so `FALSE AND EXISTS(…)` never runs the subquery, and
//! they clear [`Program::root_safe`]: a nested plan needs a real
//! environment, not the fused spine's borrowed row.

use sqlpp_plan::{AggFunc, Coercion, CoreExpr, CoreOp, CoreQuery};
use sqlpp_syntax::ast::{BinOp, IsTest, UnOp};
use sqlpp_value::{AttrName, Value};

use crate::cast::CastTarget;

/// A compiled expression, borrowing the plan it was compiled from.
#[derive(Clone)]
pub(crate) struct Program<'p> {
    /// The flat instruction sequence; execution runs `0..len` with jumps.
    pub(crate) instrs: Vec<Instr<'p>>,
    /// True when every name lookup is a plain variable/parameter read and
    /// no instruction runs a nested plan, so the fused scan spine may
    /// evaluate rows against a *borrowed* root binding without
    /// materializing an `Env`. `Global`/`Dynamic` lookups (they inspect
    /// the full set of visible bindings) and call instructions clear it.
    pub(crate) root_safe: bool,
    /// The attribute names of every tuple constructor whose names are
    /// string constants, interned once at compile time so building a row
    /// copies names instead of allocating them (see
    /// [`Instr::NamedTupleCtor`]).
    pub(crate) names: Vec<AttrName>,
}

/// A leaf operand: a value the VM reads in place (`Evaluator::operand`)
/// as a reference into the row, the environment, the parameters or the
/// plan, instead of evaluating it onto the stack.
#[derive(Clone, Copy)]
pub(crate) enum Operand<'p> {
    /// A literal.
    Const(&'p Value),
    /// A positional parameter (error: not supplied).
    Param(usize),
    /// A variable (error: unknown name), or static attribute steps off
    /// one: the plan's own `Var`, or its chain of `Path`s down to one.
    Var(&'p CoreExpr),
    /// The same path off the fused spine's borrowed root binding — no
    /// name compare, no environment probe (emitted only by
    /// [`Program::specialize_for_root`], never by the compiler).
    Root(&'p CoreExpr),
}

/// Where an instruction takes an operand from: `None` pops it off the
/// stack, `Some` reads a leaf in place. Stacked operands always come
/// first — a leaf is read in place only when every operand after it is
/// one too — so operands are still read left to right.
pub(crate) type Arg<'p> = Option<Operand<'p>>;

/// One VM instruction. Jump targets are absolute instruction indices.
#[derive(Clone, Copy)]
pub(crate) enum Instr<'p> {
    /// Push a clone of a leaf: the one place a leaf is copied, for values
    /// the program hands on (outputs, constructors, call arguments).
    Push(Operand<'p>),
    /// Resolve a catalog reference (`resolve_global`).
    Global(&'p [String]),
    /// Resolve a late-bound name (env → catalog → unique attribute).
    Dynamic(&'p String),
    /// Navigate `.attr` on the popped value.
    Path(&'p str),
    /// `base[index]` on the two popped values.
    Index,
    /// Any binary operator except AND/OR (those need control flow).
    Bin {
        /// The operator.
        op: BinOp,
        /// Left operand.
        l: Arg<'p>,
        /// Right operand.
        r: Arg<'p>,
    },
    /// Join the two popped operands of AND/OR under 3VL (the
    /// non-short-circuit half).
    Logic(BinOp),
    /// Peek the left operand of AND/OR: jump to `end` (keeping it as the
    /// result) when it alone decides the outcome — `FALSE AND …` /
    /// `TRUE OR …` dominate even absent right operands.
    ShortCircuit {
        /// `BinOp::And` or `BinOp::Or`.
        op: BinOp,
        /// Jump target when the left operand dominates.
        end: usize,
    },
    /// Unary operator on the popped value.
    Un(UnOp),
    /// `IS [NOT] NULL/MISSING/<type>`.
    Is {
        /// The test.
        test: &'p IsTest,
        /// `IS NOT`?
        negated: bool,
        /// The tested value.
        x: Arg<'p>,
    },
    /// `text LIKE pattern [ESCAPE escape]`.
    Like {
        /// NOT LIKE?
        negated: bool,
        /// The matched text.
        text: Arg<'p>,
        /// The pattern.
        pat: Arg<'p>,
        /// The escape operand, if written.
        esc: Option<Arg<'p>>,
    },
    /// `low <= x AND x <= high` under 3VL. The subject is evaluated
    /// exactly once.
    Between {
        /// NOT BETWEEN?
        negated: bool,
        /// The subject.
        x: Arg<'p>,
        /// Lower bound.
        low: Arg<'p>,
        /// Upper bound.
        high: Arg<'p>,
    },
    /// Peek: if the top of stack is MISSING jump to the target, leaving
    /// MISSING as the result (IN's missing-needle rule).
    JumpIfMissing(usize),
    /// The IN membership scan: MISSING when the needle is (the
    /// collection is then not read), else the scan of the collection.
    InCollection {
        /// NOT IN?
        negated: bool,
        /// The needle.
        needle: Arg<'p>,
        /// The collection.
        hay: Arg<'p>,
    },
    /// Call: pops the needle and streams the subquery's rows against it,
    /// stopping at the first TRUE.
    InSubquery {
        /// The SQL-coerced (`Coercion::Collection`) subquery.
        plan: &'p CoreQuery,
        /// NOT IN?
        negated: bool,
    },
    /// CASE arm dispatch on the popped WHEN value: TRUE falls through to
    /// the THEN code; MISSING under composable compat pushes MISSING and
    /// jumps to `end`; anything else jumps to `next` (the next arm).
    CaseJump {
        /// Start of the next arm (or the ELSE code).
        next: usize,
        /// First instruction after the whole CASE.
        end: usize,
    },
    /// Unconditional jump.
    Jump(usize),
    /// Call a scalar function on the top `argc` values.
    Call {
        /// Upper-case function name.
        name: &'p str,
        /// Argument count.
        argc: usize,
    },
    /// CAST the popped value.
    Cast {
        /// Parsed target.
        target: CastTarget,
        /// Original type name (for the error message).
        ty: &'p str,
    },
    /// CAST to a target that failed to parse: evaluate-then-error (both
    /// typing modes hard-error).
    BadCast(&'p str),
    /// Build a tuple from the top `2n` values (name/value pairs).
    TupleCtor(usize),
    /// Build a tuple from the top `n` values under the constant names
    /// `Program::names[first..first + n]`.
    NamedTupleCtor {
        /// Index of the first name in [`Program::names`].
        first: usize,
        /// Attribute count.
        n: usize,
    },
    /// Build an array from the top `n` values (MISSING dropped).
    ArrayCtor(usize),
    /// Build a bag from the top `n` values (MISSING dropped).
    BagCtor(usize),
    /// Call: run a nested plan and push its (coerced) result.
    Subquery {
        /// The nested plan.
        plan: &'p CoreQuery,
        /// Adaptation to context (§V-A).
        coercion: Coercion,
    },
    /// Call: push whether the nested plan yields at least one element.
    Exists(&'p CoreQuery),
    /// Aggregate the popped collection value.
    CollAgg {
        /// Which aggregate.
        func: AggFunc,
        /// Deduplicate elements first.
        distinct: bool,
    },
    /// Call: non-DISTINCT `COLL_*` over an element-producing bag
    /// subquery, aggregated as the subquery's element stream is pulled —
    /// the bag is never built, which is legal because its
    /// materialization is only conceptual (§V-C).
    CollAggStream {
        /// Which aggregate.
        func: AggFunc,
        /// The subquery.
        plan: &'p CoreQuery,
    },
}

impl<'p> Program<'p> {
    /// Rewrites every path operand that can only resolve to the fused
    /// spine's root binding (one on the scan variable — root-first
    /// shadowing means the root always wins) into a direct root read,
    /// eliminating the per-row name comparison from the hot loop. Only
    /// meaningful for `root_safe` programs run with a root binding.
    pub(crate) fn specialize_for_root(&self, root: &str) -> Program<'p> {
        let mut p = self.clone();
        for i in &mut p.instrs {
            i.for_each_leaf(|o| match *o {
                Operand::Var(path) if path_var(path) == Some(root) => *o = Operand::Root(path),
                _ => {}
            });
        }
        p
    }
}

impl<'p> Instr<'p> {
    /// Visits every operand this instruction reads in place.
    fn for_each_leaf(&mut self, f: impl FnMut(&mut Operand<'p>)) {
        match self {
            Instr::Push(o) => std::iter::once(o).for_each(f),
            Instr::Bin { l, r, .. } => [l, r].into_iter().flatten().for_each(f),
            Instr::Is { x, .. } => x.iter_mut().for_each(f),
            Instr::Like { text, pat, esc, .. } => {
                [text, pat].into_iter().chain(esc).flatten().for_each(f)
            }
            Instr::Between { x, low, high, .. } => [x, low, high].into_iter().flatten().for_each(f),
            Instr::InCollection { needle, hay, .. } => {
                [needle, hay].into_iter().flatten().for_each(f)
            }
            _ => {}
        }
    }
}

/// Compiles `e`.
pub(crate) fn compile(e: &CoreExpr) -> Program<'_> {
    let mut p = Program {
        instrs: Vec::new(),
        root_safe: true,
        names: Vec::new(),
    };
    p.emit(e);
    p
}

/// `e` as a leaf operand, when it is one: a constant, a parameter, or a
/// variable followed by static attribute steps.
fn leaf(e: &CoreExpr) -> Option<Operand<'_>> {
    match e {
        CoreExpr::Const(v) => Some(Operand::Const(v)),
        CoreExpr::Param(i) => Some(Operand::Param(*i)),
        _ => path_var(e).map(|_| Operand::Var(e)),
    }
}

/// The variable `e` navigates from, when `e` is a variable or a chain of
/// static attribute steps off one.
fn path_var(e: &CoreExpr) -> Option<&str> {
    match e {
        CoreExpr::Var(name) => Some(name),
        CoreExpr::Path(base, _) => path_var(base),
        _ => None,
    }
}

/// Whether a value-producing operator yields a *collection of elements*
/// (`true` for everything except PIVOT — whose result is a single tuple —
/// possibly under WITH). This is the condition for streaming its output
/// element-wise instead of materializing it.
pub(crate) fn produces_elements(op: &CoreOp) -> bool {
    match op {
        CoreOp::Pivot { .. } => false,
        CoreOp::With { body, .. } => produces_elements(body),
        _ => true,
    }
}

/// Compilation: the program grows as the expression is walked.
impl<'p> Program<'p> {
    /// Emits a call instruction: nested plans need a real environment.
    fn call(&mut self, i: Instr<'p>) {
        self.root_safe = false;
        self.instrs.push(i);
    }

    /// Reserves a slot for a jump instruction patched later.
    fn hole(&mut self) -> usize {
        self.instrs.push(Instr::Jump(usize::MAX));
        self.instrs.len() - 1
    }

    fn emit_all(&mut self, items: &'p [CoreExpr]) {
        for e in items {
            self.emit(e);
        }
    }

    /// Compiles an instruction's operands: every one up to the last
    /// non-leaf is emitted onto the stack, left to right, and the trailing
    /// leaves are returned to be read in place, after them.
    fn args<const N: usize>(&mut self, items: [&'p CoreExpr; N]) -> [Arg<'p>; N] {
        let stacked = (items.iter().rposition(|e| leaf(e).is_none())).map_or(0, |k| k + 1);
        let mut args = [None; N];
        for (i, e) in items.into_iter().enumerate() {
            if i < stacked {
                self.emit(e);
            } else {
                args[i] = leaf(e);
            }
        }
        args
    }

    fn emit(&mut self, e: &'p CoreExpr) {
        if let Some(leaf) = leaf(e) {
            self.instrs.push(Instr::Push(leaf));
            return;
        }
        match e {
            CoreExpr::Const(_) | CoreExpr::Param(_) | CoreExpr::Var(_) => {
                unreachable!("leaves are pushed above")
            }
            CoreExpr::Global(segments) => {
                self.root_safe = false;
                self.instrs.push(Instr::Global(segments));
            }
            CoreExpr::Dynamic(name) => {
                self.root_safe = false;
                self.instrs.push(Instr::Dynamic(name));
            }
            CoreExpr::Path(base, attr) => {
                self.emit(base);
                self.instrs.push(Instr::Path(attr));
            }
            CoreExpr::Index(base, idx) => {
                self.emit(base);
                self.emit(idx);
                self.instrs.push(Instr::Index);
            }
            CoreExpr::Bin(op @ (BinOp::And | BinOp::Or), l, r) => {
                self.emit(l);
                let sc = self.hole();
                self.emit(r);
                self.instrs.push(Instr::Logic(*op));
                self.instrs[sc] = Instr::ShortCircuit {
                    op: *op,
                    end: self.instrs.len(),
                };
            }
            CoreExpr::Bin(op, l, r) => {
                let [l, r] = self.args([l, r]);
                self.instrs.push(Instr::Bin { op: *op, l, r });
            }
            CoreExpr::Un(op, x) => {
                self.emit(x);
                self.instrs.push(Instr::Un(*op));
            }
            CoreExpr::Like {
                expr,
                pattern,
                escape,
                negated,
            } => {
                let (text, pat, esc) = match escape {
                    Some(esc) => {
                        let [text, pat, esc] = self.args([expr, pattern, esc]);
                        (text, pat, Some(esc))
                    }
                    None => {
                        let [text, pat] = self.args([expr, pattern]);
                        (text, pat, None)
                    }
                };
                self.instrs.push(Instr::Like {
                    negated: *negated,
                    text,
                    pat,
                    esc,
                });
            }
            CoreExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let [x, low, high] = self.args([expr, low, high]);
                self.instrs.push(Instr::Between {
                    negated: *negated,
                    x,
                    low,
                    high,
                });
            }
            CoreExpr::In {
                expr,
                collection,
                negated,
            } => {
                // A leaf collection is read only after the needle is known
                // not to be MISSING; anything else sits behind the jump.
                if leaf(collection).is_some() {
                    let [needle, hay] = self.args([expr, collection]);
                    self.instrs.push(Instr::InCollection {
                        negated: *negated,
                        needle,
                        hay,
                    });
                    return;
                }
                self.emit(expr);
                let j = self.hole();
                match &**collection {
                    CoreExpr::Subquery {
                        plan,
                        coercion: Coercion::Collection,
                    } if produces_elements(&plan.op) => self.call(Instr::InSubquery {
                        plan,
                        negated: *negated,
                    }),
                    other => {
                        self.emit(other);
                        self.instrs.push(Instr::InCollection {
                            negated: *negated,
                            needle: None,
                            hay: None,
                        });
                    }
                }
                self.instrs[j] = Instr::JumpIfMissing(self.instrs.len());
            }
            CoreExpr::Is {
                expr,
                test,
                negated,
            } => {
                let [x] = self.args([expr]);
                self.instrs.push(Instr::Is {
                    test,
                    negated: *negated,
                    x,
                });
            }
            CoreExpr::Case { arms, else_expr } => {
                let mut case_jumps = Vec::with_capacity(arms.len());
                let mut arm_ends = Vec::with_capacity(arms.len());
                for (when, then) in arms {
                    self.emit(when);
                    let cj = self.hole();
                    self.emit(then);
                    arm_ends.push(self.hole());
                    // `next` is known now; `end` is patched after ELSE.
                    self.instrs[cj] = Instr::CaseJump {
                        next: self.instrs.len(),
                        end: usize::MAX,
                    };
                    case_jumps.push(cj);
                }
                self.emit(else_expr);
                let end = self.instrs.len();
                for cj in case_jumps {
                    if let Instr::CaseJump { end: e, .. } = &mut self.instrs[cj] {
                        *e = end;
                    }
                }
                for j in arm_ends {
                    self.instrs[j] = Instr::Jump(end);
                }
            }
            CoreExpr::Call { name, args } => {
                self.emit_all(args);
                self.instrs.push(Instr::Call {
                    name,
                    argc: args.len(),
                });
            }
            CoreExpr::CollAgg {
                func,
                distinct,
                input,
            } => match &**input {
                CoreExpr::Subquery {
                    plan,
                    coercion: Coercion::Bag,
                } if !distinct && produces_elements(&plan.op) => {
                    self.call(Instr::CollAggStream { func: *func, plan })
                }
                _ => {
                    self.emit(input);
                    self.instrs.push(Instr::CollAgg {
                        func: *func,
                        distinct: *distinct,
                    });
                }
            },
            CoreExpr::Subquery { plan, coercion } => self.call(Instr::Subquery {
                plan,
                coercion: *coercion,
            }),
            CoreExpr::Exists(q) => self.call(Instr::Exists(q)),
            CoreExpr::TupleCtor(pairs) => {
                let constant_names: Option<Vec<AttrName>> = pairs
                    .iter()
                    .map(|(name, _)| match name {
                        CoreExpr::Const(Value::Str(s)) => Some(AttrName::new(s)),
                        _ => None,
                    })
                    .collect();
                match constant_names {
                    Some(names) => {
                        let first = self.names.len();
                        self.names.extend(names);
                        for (_, value) in pairs {
                            self.emit(value);
                        }
                        self.instrs.push(Instr::NamedTupleCtor {
                            first,
                            n: pairs.len(),
                        });
                    }
                    None => {
                        for (name, value) in pairs {
                            self.emit(name);
                            self.emit(value);
                        }
                        self.instrs.push(Instr::TupleCtor(pairs.len()));
                    }
                }
            }
            CoreExpr::ArrayCtor(items) => {
                self.emit_all(items);
                self.instrs.push(Instr::ArrayCtor(items.len()));
            }
            CoreExpr::BagCtor(items) => {
                self.emit_all(items);
                self.instrs.push(Instr::BagCtor(items.len()));
            }
            CoreExpr::Cast { expr, ty } => {
                self.emit(expr);
                self.instrs.push(match CastTarget::parse(ty) {
                    Some(target) => Instr::Cast { target, ty },
                    None => Instr::BadCast(ty),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(n: &str) -> CoreExpr {
        CoreExpr::Var(n.into())
    }

    #[test]
    fn field_peephole_fuses_var_navigation() {
        let e = CoreExpr::Path(Box::new(var("t")), "x".into());
        let p = compile(&e);
        assert_eq!(p.instrs.len(), 1);
        assert!(
            matches!(p.instrs[..], [Instr::Push(Operand::Var(path))] if std::ptr::eq(path, &e))
        );
        assert!(p.root_safe);
    }

    #[test]
    fn plan_valued_expressions_compile_to_calls() {
        let sub = |coercion| CoreExpr::Subquery {
            plan: Box::new(CoreQuery {
                op: CoreOp::Project {
                    input: Box::new(CoreOp::Single),
                    expr: var("g"),
                    distinct: false,
                },
            }),
            coercion,
        };
        let agg = CoreExpr::CollAgg {
            func: AggFunc::Count,
            distinct: false,
            input: Box::new(sub(Coercion::Bag)),
        };
        let p = compile(&agg);
        assert!(matches!(p.instrs[..], [Instr::CollAggStream { .. }]));
        assert!(!p.root_safe, "calls need a real environment");
        // DISTINCT needs the whole bag: it materializes first.
        let distinct = CoreExpr::CollAgg {
            func: AggFunc::Count,
            distinct: true,
            input: Box::new(sub(Coercion::Bag)),
        };
        assert!(matches!(
            compile(&distinct).instrs[..],
            [Instr::Subquery { .. }, Instr::CollAgg { .. }]
        ));
        let member = CoreExpr::In {
            expr: Box::new(var("x")),
            collection: Box::new(sub(Coercion::Collection)),
            negated: false,
        };
        let p = compile(&member);
        assert!(matches!(
            p.instrs[..],
            [
                Instr::Push(Operand::Var(CoreExpr::Var(x))),
                Instr::JumpIfMissing(3),
                Instr::InSubquery { .. }
            ] if x == "x"
        ));
    }

    #[test]
    fn between_emits_its_subject_once_and_nests_linearly() {
        // 64-deep `((x BETWEEN 0 AND 1) BETWEEN 0 AND 1) …`: one
        // instruction per level (the bounds are read in place), not the
        // former doubling.
        let mut e = var("x");
        for _ in 0..64 {
            e = CoreExpr::Between {
                expr: Box::new(e),
                low: Box::new(CoreExpr::Const(Value::Int(0))),
                high: Box::new(CoreExpr::Const(Value::Int(1))),
                negated: false,
            };
        }
        let p = compile(&e);
        assert_eq!(p.instrs.len(), 64);
        let subjects = (p.instrs.iter())
            .filter(|i| matches!(i, Instr::Between { x: Some(_), .. }))
            .count();
        assert_eq!(subjects, 1);
    }

    #[test]
    fn constant_tuple_names_are_made_at_compile_time() {
        let name = |n: &str| CoreExpr::Const(Value::Str(n.into()));
        let constant = CoreExpr::TupleCtor(vec![(name("a"), var("x")), (name("b"), var("y"))]);
        let p = compile(&constant);
        // Only the values are pushed; the names wait in the program.
        assert!(matches!(
            p.instrs[..],
            [
                Instr::Push(Operand::Var(CoreExpr::Var(x))),
                Instr::Push(Operand::Var(CoreExpr::Var(y))),
                Instr::NamedTupleCtor { first: 0, n: 2 }
            ] if x == "x" && y == "y"
        ));
        assert_eq!(p.names, [AttrName::new("a"), AttrName::new("b")]);
        // One computed name keeps the whole constructor dynamic.
        let dynamic = CoreExpr::TupleCtor(vec![(name("a"), var("x")), (var("k"), var("y"))]);
        let p = compile(&dynamic);
        assert!(matches!(p.instrs.last(), Some(Instr::TupleCtor(2))));
        assert!(p.names.is_empty());
    }

    #[test]
    fn globals_clear_root_safety() {
        let e = CoreExpr::Global(vec!["db".into(), "r".into()]);
        assert!(!compile(&e).root_safe);
    }

    #[test]
    fn short_circuit_targets_land_after_logic_join() {
        let e = CoreExpr::Bin(
            BinOp::And,
            Box::new(CoreExpr::Const(Value::Bool(false))),
            Box::new(var("x")),
        );
        let p = compile(&e);
        // [Push(false), ShortCircuit{end:4}, Push(x), Logic(And)]
        assert_eq!(p.instrs.len(), 4);
        assert!(matches!(
            p.instrs[1],
            Instr::ShortCircuit {
                op: BinOp::And,
                end: 4
            }
        ));
    }
}
