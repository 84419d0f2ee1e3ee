//! Declared workload schemas and the shapes the paper's rules give them.
//!
//! Each generator declares the schema it writes ([`Ty`]). The expected
//! shape of a corpus is derived here from that declaration, by the §3
//! rules (Fig. 3 and the §6.2/§6.4 extensions), without looking at the
//! program's output: a leaf whose values mix `int` and `float` is
//! `float`, a leaf that is sometimes `null` or a field that is sometimes
//! missing is `⌈σ⌉`, XML child elements form a heterogeneous collection
//! whose cases carry multiplicities, and so on. The rendering follows the
//! paper's notation as the `tfd` CLI prints it.

use std::fmt;

/// A primitive leaf kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Prim {
    Int,
    Float,
    Bool,
    Str,
    Date,
    Bit,
}

/// A declared schema node.
#[derive(Clone, Debug)]
pub enum Ty {
    /// A leaf; several kinds mean the generator mixes them.
    Prim(&'static [Prim]),
    /// A leaf or record that is `null` in some records.
    Nullable(Box<Ty>),
    /// A field that is missing from some records.
    Optional(Box<Ty>),
    Record(&'static str, Vec<(&'static str, Ty)>),
    List(Box<Ty>),
    /// XML element content: child elements by tag, in document order.
    Children(Vec<Child>),
    /// A back reference to the enclosing element of this name.
    Rec(&'static str),
}

/// One child element tag with the range of its per-parent count.
#[derive(Clone, Debug)]
pub struct Child {
    pub tag: &'static str,
    pub min: usize,
    pub max: usize,
    pub ty: Ty,
}

pub fn prim(kinds: &'static [Prim]) -> Ty {
    Ty::Prim(kinds)
}
pub fn nullable(t: Ty) -> Ty {
    Ty::Nullable(Box::new(t))
}
pub fn optional(t: Ty) -> Ty {
    Ty::Optional(Box::new(t))
}
pub fn list(t: Ty) -> Ty {
    Ty::List(Box::new(t))
}

/// The expected shape, in the paper's notation.
#[derive(Clone, Debug, PartialEq)]
pub enum Sh {
    Prim(Prim),
    Nullable(Box<Sh>),
    Record(String, Vec<(String, Sh)>),
    List(Box<Sh>),
    Hetero(Vec<(Sh, &'static str)>),
    Ref(String),
}

/// The §3 (num) rule and its §6.2 extensions: `int ⊔ float = float`,
/// `bit ⊔ int = int`, `bit ⊔ float = float`, `bit ⊔ bool = bool`,
/// `date ⊔ string = string`.
fn join_prim(a: Prim, b: Prim) -> Prim {
    use Prim::*;
    match (a, b) {
        (x, y) if x == y => x,
        (Int, Float) | (Float, Int) | (Bit, Float) | (Float, Bit) => Float,
        (Bit, Int) | (Int, Bit) => Int,
        (Bit, Bool) | (Bool, Bit) => Bool,
        (Date, Str) | (Str, Date) => Str,
        (x, y) => panic!("schema mixes {x:?} and {y:?}, which join to a labelled top"),
    }
}

/// `⌈σ⌉`: the least nullable shape above σ. Collections are nullable
/// already (an absent collection reads as empty).
fn ceil(s: Sh) -> Sh {
    match s {
        s @ (Sh::Nullable(_) | Sh::List(_) | Sh::Hetero(_)) => s,
        s => Sh::Nullable(Box::new(s)),
    }
}

/// The multiplicity of a child tag whose per-parent count lies in
/// `min..=max` (§6.4): `1`, `1?` or `*`.
fn multiplicity(min: usize, max: usize) -> &'static str {
    if max >= 2 {
        "*"
    } else if min == 0 {
        "1?"
    } else {
        "1"
    }
}

/// Derives the expected shape of a corpus of values declared by `ty`.
pub fn expected(ty: &Ty) -> Sh {
    match ty {
        Ty::Prim(kinds) => {
            let mut k = kinds[0];
            for &other in &kinds[1..] {
                k = join_prim(k, other);
            }
            Sh::Prim(k)
        }
        Ty::Nullable(t) | Ty::Optional(t) => ceil(expected(t)),
        Ty::Record(name, fields) => Sh::Record(
            (*name).to_owned(),
            fields
                .iter()
                .map(|(f, t)| ((*f).to_owned(), expected(t)))
                .collect(),
        ),
        Ty::List(t) => Sh::List(Box::new(expected(t))),
        Ty::Children(children) => {
            // Cases print in canonical tag order; record tags order by name.
            let mut cases: Vec<&Child> = children.iter().collect();
            cases.sort_by_key(|c| c.tag);
            Sh::Hetero(
                cases
                    .into_iter()
                    .map(|c| (expected(&c.ty), multiplicity(c.min, c.max)))
                    .collect(),
            )
        }
        Ty::Rec(name) => Sh::Ref((*name).to_owned()),
    }
}

/// The join of two expected shapes of one field, as far as the schemas
/// here need it.
fn join(a: Sh, b: Sh) -> Sh {
    match (a, b) {
        (Sh::Nullable(a), b) => ceil(join(*a, b)),
        (a, Sh::Nullable(b)) => ceil(join(a, *b)),
        (Sh::Prim(x), Sh::Prim(y)) => Sh::Prim(join_prim(x, y)),
        (Sh::List(x), Sh::List(y)) => Sh::List(Box::new(join(*x, *y))),
        (Sh::Ref(x), Sh::Ref(y)) if x == y => Sh::Ref(x),
        (a, b) => panic!("schema joins {a} and {b}, which join to a labelled top"),
    }
}

/// One record class of a by-name fold: how many declared records carry
/// its name, and each field with the number of them that always have it.
struct Class {
    name: &'static str,
    records: usize,
    fields: Vec<(&'static str, Sh, usize)>,
}

fn classes_of(ty: &Ty, classes: &mut Vec<Class>) -> Sh {
    match ty {
        Ty::Prim(_) => expected(ty),
        Ty::Nullable(t) | Ty::Optional(t) => ceil(classes_of(t, classes)),
        Ty::List(t) => Sh::List(Box::new(classes_of(t, classes))),
        Ty::Record(name, fields) => {
            // Post-order: nested records join their class first.
            let shapes: Vec<(&'static str, Sh, usize)> = fields
                .iter()
                .map(|(f, t)| {
                    let always = usize::from(!matches!(t, Ty::Optional(_)));
                    (*f, classes_of(t, classes), always)
                })
                .collect();
            let i = match classes.iter().position(|c| c.name == *name) {
                Some(i) => i,
                None => {
                    classes.push(Class {
                        name,
                        records: 0,
                        fields: Vec::new(),
                    });
                    classes.len() - 1
                }
            };
            let class = &mut classes[i];
            class.records += 1;
            for (f, s, always) in shapes {
                match class.fields.iter_mut().find(|e| e.0 == f) {
                    Some(e) => {
                        e.1 = join(std::mem::replace(&mut e.1, Sh::Ref(String::new())), s);
                        e.2 += always;
                    }
                    None => class.fields.push((f, s, always)),
                }
            }
            Sh::Ref((*name).to_owned())
        }
        Ty::Children(_) | Ty::Rec(_) => panic!("by-name fold of XML content is not derived"),
    }
}

/// The shape a by-name fold gives a corpus of records declared by `ty`
/// (`tfd infer --global`, and the schema registry's fold). All
/// records of one name form one class. Its fields are the union of the
/// fields those records declare, in the order a post-order walk first
/// meets them. A field that some record of the class lacks is `⌈σ⌉`, and
/// nested records become references. The root class prints expanded.
pub fn by_name(ty: &Ty) -> Sh {
    let mut classes = Vec::new();
    match classes_of(ty, &mut classes) {
        Sh::Ref(name) => {
            let c = classes
                .into_iter()
                .find(|c| c.name == name)
                .expect("the root's class");
            let fields = c
                .fields
                .into_iter()
                .map(|(f, s, always)| {
                    let s = if always < c.records { ceil(s) } else { s };
                    (f.to_owned(), s)
                })
                .collect();
            Sh::Record(name, fields)
        }
        other => other,
    }
}

impl fmt::Display for Sh {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sh::Prim(p) => f.write_str(match p {
                Prim::Int => "int",
                Prim::Float => "float",
                Prim::Bool => "bool",
                Prim::Str => "string",
                Prim::Date => "date",
                Prim::Bit => "bit",
            }),
            Sh::Nullable(s) => write!(f, "nullable {s}"),
            Sh::Record(name, fields) => {
                write!(f, "{name} {{")?;
                for (i, (n, s)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{n} : {s}")?;
                }
                f.write_str("}")
            }
            Sh::List(s) => write!(f, "[{s}]"),
            Sh::Hetero(cases) => {
                f.write_str("[")?;
                for (i, (s, m)) in cases.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" | ")?;
                    }
                    write!(f, "{s}, {m}")?;
                }
                f.write_str("]")
            }
            Sh::Ref(name) => write!(f, "\u{21ba}{name}"),
        }
    }
}

/// The record field names the schema declares (XML text and child
/// content excluded): generated code must declare an accessor for each.
pub fn declared_fields(ty: &Ty, out: &mut Vec<&'static str>) {
    match ty {
        Ty::Prim(_) | Ty::Rec(_) => {}
        Ty::Nullable(t) | Ty::Optional(t) | Ty::List(t) => declared_fields(t, out),
        Ty::Record(_, fields) => {
            for (name, t) in fields {
                if *name != "\u{2022}" && !out.contains(name) {
                    out.push(name);
                }
                declared_fields(t, out);
            }
        }
        Ty::Children(children) => {
            for c in children {
                declared_fields(&c.ty, out);
            }
        }
    }
}

/// The accessor generated Rust code declares for a field: the name, with
/// `_` appended to a Rust keyword.
pub fn accessor_name(field: &str) -> String {
    const KEYWORDS: &[&str] = &["type", "ref", "match", "loop", "move", "self", "use"];
    if KEYWORDS.contains(&field) {
        format!("{field}_")
    } else {
        field.to_owned()
    }
}
