//! Runtime binding environments.
//!
//! A FROM clause "delivers bindings of the variables to arbitrarily typed
//! values" (§III-A). [`Env`] is a persistent (shared-tail) list of such
//! bindings: extending an environment is O(1) and never disturbs the
//! parent, which is exactly what left-correlation and correlated
//! subqueries need.

use std::rc::Rc;

use sqlpp_value::Value;

/// A persistent chain of variable bindings.
#[derive(Clone, Default)]
pub struct Env {
    node: Option<Rc<Node>>,
}

struct Node {
    // `Rc<str>` so hot loops (one bind per scanned row) can pre-intern
    // the variable name once and pay a refcount bump per row instead of
    // a fresh `String` allocation.
    name: Rc<str>,
    value: Value,
    parent: Option<Rc<Node>>,
}

impl Env {
    /// The empty environment.
    pub fn new() -> Self {
        Env::default()
    }

    /// Returns a new environment with `name` bound to `value`, shadowing
    /// any outer binding of the same name. Callers binding in a loop
    /// should create the `Rc<str>` once and pass clones.
    pub fn bind(&self, name: impl Into<Rc<str>>, value: Value) -> Env {
        Env {
            node: Some(Rc::new(Node {
                name: name.into(),
                value,
                parent: self.node.clone(),
            })),
        }
    }

    /// Innermost binding of `name`.
    pub fn get(&self, name: &str) -> Option<&Value> {
        let mut cur = self.node.as_deref();
        while let Some(n) = cur {
            if &*n.name == name {
                return Some(&n.value);
            }
            cur = n.parent.as_deref();
        }
        None
    }

    /// Iterates over the *visible* bindings, innermost first, skipping
    /// shadowed ones. Used by the dynamic-disambiguation fallback.
    pub fn visible_bindings(&self) -> Vec<(&str, &Value)> {
        let mut seen: Vec<&str> = Vec::new();
        let mut out = Vec::new();
        let mut cur = self.node.as_deref();
        while let Some(n) = cur {
            if !seen.contains(&&*n.name) {
                seen.push(&n.name);
                out.push((&*n.name, &n.value));
            }
            cur = n.parent.as_deref();
        }
        out
    }
}

impl std::fmt::Debug for Env {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.visible_bindings().iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_and_lookup() {
        let env = Env::new().bind("e", Value::Int(1)).bind("p", Value::Int(2));
        assert_eq!(env.get("e"), Some(&Value::Int(1)));
        assert_eq!(env.get("p"), Some(&Value::Int(2)));
        assert_eq!(env.get("x"), None);
    }

    #[test]
    fn shadowing_is_innermost_first() {
        let outer = Env::new().bind("x", Value::Int(1));
        let inner = outer.bind("x", Value::Int(2));
        assert_eq!(inner.get("x"), Some(&Value::Int(2)));
        // The parent is untouched (persistence).
        assert_eq!(outer.get("x"), Some(&Value::Int(1)));
    }

    #[test]
    fn visible_bindings_skip_shadowed() {
        let env = Env::new()
            .bind("a", Value::Int(1))
            .bind("b", Value::Int(2))
            .bind("a", Value::Int(3));
        let vis = env.visible_bindings();
        assert_eq!(vis.len(), 2);
        assert_eq!(vis[0], ("a", &Value::Int(3)));
        assert_eq!(vis[1], ("b", &Value::Int(2)));
    }
}
