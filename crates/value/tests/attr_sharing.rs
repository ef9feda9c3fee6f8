//! Sharing attribute names cannot be observed.
//!
//! Every tuple is built twice from the same generated pairs: once with
//! names from the intern table ([`AttrName::new`]) and once with private
//! copies ([`AttrName::owned`]). The two must be indistinguishable to
//! every operation that reads a tuple — equality, hashing, the total
//! order, lookup and update, and every codec — including under
//! duplicate names, MISSING values the constructor drops, and nesting.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;

use sqlpp_formats::ion_lite::{from_ion_lite, to_ion_lite};
use sqlpp_formats::json::{from_json, to_json};
use sqlpp_formats::pnotation::{from_pnotation, to_pnotation};
use sqlpp_testkit::prop::values::{scalar, ValueProfile};
use sqlpp_testkit::prop::{Gen, Source};
use sqlpp_testkit::{prop_assert, prop_assert_eq, sqlpp_prop};
use sqlpp_value::attr::MAX_INTERNED_LEN;
use sqlpp_value::cmp::{deep_eq, total_cmp};
use sqlpp_value::hash::hash_value;
use sqlpp_value::{AttrName, Tuple, Value};

/// A value before its tuples are built: attribute pairs are kept as
/// generated, MISSING values and duplicate names included.
#[derive(Debug, Clone)]
enum Raw {
    Leaf(Value),
    Array(Vec<Raw>),
    Bag(Vec<Raw>),
    Tuple(Vec<(String, Raw)>),
}

/// Names the generator draws from: short ones that repeat (duplicates)
/// and one past the intern table's length cap, which is owned in both
/// builds.
fn names() -> Vec<String> {
    let mut names: Vec<String> = ["a", "b", "c", "id"].map(String::from).to_vec();
    names.push("long_".repeat(MAX_INTERNED_LEN / 4));
    names
}

fn raw(src: &mut Source, leaf: &Gen<Value>, names: &[String], depth: u32) -> Raw {
    if depth == 0 || src.draw_below(3) == 0 {
        return Raw::Leaf(leaf.generate(src));
    }
    let width = src.draw_len(0, 4);
    match src.draw_below(4) {
        0 => Raw::Array(
            (0..width)
                .map(|_| raw(src, leaf, names, depth - 1))
                .collect(),
        ),
        1 => Raw::Bag(
            (0..width)
                .map(|_| raw(src, leaf, names, depth - 1))
                .collect(),
        ),
        _ => raw_tuple(src, leaf, names, depth),
    }
}

fn raw_tuple(src: &mut Source, leaf: &Gen<Value>, names: &[String], depth: u32) -> Raw {
    let width = src.draw_len(0, 6);
    Raw::Tuple(
        (0..width)
            .map(|_| {
                let name = names[src.draw_below(names.len() as u64) as usize].clone();
                (name, raw(src, leaf, names, depth.saturating_sub(1)))
            })
            .collect(),
    )
}

/// A tuple-rooted raw value, three levels deep at most.
fn any_raw_tuple() -> Gen<Raw> {
    let leaf = scalar(&ValueProfile::default());
    let names = names();
    Gen::new(move |src| raw_tuple(src, &leaf, &names, 3))
}

/// Builds `raw` with every attribute name made by `name`.
fn build(raw: &Raw, name: fn(&str) -> AttrName) -> Value {
    match raw {
        Raw::Leaf(v) => v.clone(),
        Raw::Array(items) => Value::Array(items.iter().map(|r| build(r, name)).collect()),
        Raw::Bag(items) => Value::Bag(items.iter().map(|r| build(r, name)).collect()),
        Raw::Tuple(pairs) => {
            let mut t = Tuple::new();
            for (n, r) in pairs {
                t.insert(name(n), build(r, name));
            }
            Value::Tuple(t)
        }
    }
}

fn shared(n: &str) -> AttrName {
    AttrName::new(n)
}

fn owned(n: &str) -> AttrName {
    AttrName::owned(n)
}

fn hash_of(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    hash_value(v, &mut h);
    h.finish()
}

fn tuple_of(v: Value) -> Tuple {
    match v {
        Value::Tuple(t) => t,
        other => panic!("not a tuple: {other:?}"),
    }
}

sqlpp_prop! {
    #![config(cases = 256)]

    fn shared_and_owned_names_are_indistinguishable(
        raw in any_raw_tuple(),
        other in any_raw_tuple(),
    ) {
        let (a, b) = (build(&raw, shared), build(&raw, owned));
        let c = build(&other, shared);

        prop_assert!(deep_eq(&a, &b), "{a} vs {b}");
        prop_assert_eq!(hash_of(&a), hash_of(&b));
        prop_assert_eq!(total_cmp(&a, &b), std::cmp::Ordering::Equal);
        prop_assert_eq!(total_cmp(&a, &c), total_cmp(&b, &c));
        prop_assert_eq!(deep_eq(&a, &c), deep_eq(&b, &c));

        let (ta, tb) = (tuple_of(a.clone()), tuple_of(b.clone()));
        prop_assert_eq!(ta.len(), tb.len());
        for n in names().iter().map(String::as_str).chain(["absent"]) {
            prop_assert_eq!(ta.get(n), tb.get(n));
            prop_assert_eq!(ta.contains(n), tb.contains(n));
            let (all_a, all_b): (Vec<_>, Vec<_>) = (ta.get_all(n).collect(), tb.get_all(n).collect());
            prop_assert_eq!(all_a, all_b);

            let (mut ra, mut rb) = (ta.clone(), tb.clone());
            prop_assert_eq!(ra.remove(n), rb.remove(n));
            prop_assert!(deep_eq(&Value::Tuple(ra), &Value::Tuple(rb)));

            let (mut ua, mut ub) = (ta.clone(), tb.clone());
            ua.upsert(shared(n), Value::Int(7));
            ub.upsert(owned(n), Value::Int(7));
            prop_assert!(deep_eq(&Value::Tuple(ua), &Value::Tuple(ub)));
        }

        let bytes = to_ion_lite(&a);
        prop_assert_eq!(&bytes, &to_ion_lite(&b));
        let back = from_ion_lite(&bytes).expect("ion_lite decodes its own encoding");
        prop_assert!(deep_eq(&back, &a), "ion_lite round trip: {back} vs {a}");

        let (ja, jb) = (to_json(&a), to_json(&b));
        prop_assert_eq!(&ja, &jb);
        let (da, db) = (from_json(&ja), from_json(&jb));
        prop_assert_eq!(da.is_ok(), db.is_ok());
        if let (Ok(da), Ok(db)) = (da, db) {
            prop_assert!(deep_eq(&da, &db));
        }

        let (pa, pb) = (to_pnotation(&a), to_pnotation(&b));
        prop_assert_eq!(&pa, &pb);
        let (da, db) = (from_pnotation(&pa), from_pnotation(&pb));
        prop_assert_eq!(da.is_ok(), db.is_ok());
        if let (Ok(da), Ok(db)) = (da, db) {
            prop_assert!(deep_eq(&da, &db));
        }
    }
}
