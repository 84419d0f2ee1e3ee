//! Typed access as provided code does it: parse a record with the entry
//! point generated `parse` functions call, wrap it in a `Node`, and read
//! every leaf of the declared schema through `field`, `opt`, `elements`,
//! the tagged case accessors and the `as_*` conversions.

use crate::gen::{Totals, Workload};
use crate::schema::{Prim, Ty};
use tfd_core::Tag;
use tfd_runtime::{AccessError, Node};
use tfd_value::Value;

/// Parses one record (JSON, XML) or the whole file (CSV) the way the
/// generated `parse(text)` does.
pub fn parse(workload: Workload, text: &str) -> Result<Value, String> {
    match workload {
        Workload::JsonlEvents => tfd_json::parse_value(text).map_err(|e| e.to_string()),
        Workload::XmlOrders => tfd_xml::parse_value(text).map_err(|e| e.to_string()),
        Workload::CsvDirty => tfd_csv::parse_value(text).map_err(|e| e.to_string()),
    }
}

/// Reads every leaf of `ty` under `node`, adding to `t`. Returns the
/// number of accessor calls made.
pub fn walk<'s>(
    ty: &'s Ty,
    node: &Node,
    t: &mut Totals,
    recs: &mut Vec<(&'s str, &'s Ty)>,
) -> Result<u64, AccessError> {
    let mut calls = 1;
    match ty {
        Ty::Prim(kinds) => {
            match kinds {
                [Prim::Int] => t.ints = t.ints.wrapping_add(node.as_i64()?),
                [Prim::Float] | [Prim::Int, Prim::Float] => t.floats += node.as_f64()?,
                [Prim::Bool] => t.trues += u64::from(node.as_bool()?),
                [Prim::Bit] => t.trues += u64::from(node.as_bit_bool()?),
                [Prim::Str] => t.str_bytes += node.as_str()?.len() as u64,
                [Prim::Date] => {
                    let d = node.as_date()?;
                    t.dates = t.dates.wrapping_add(
                        i64::from(d.year) * 10_000 + i64::from(d.month) * 100 + i64::from(d.day),
                    );
                }
                other => unreachable!("no accessor declared for {other:?}"),
            }
            t.leaves += 1;
        }
        Ty::Nullable(inner) | Ty::Optional(inner) => match node.opt() {
            Some(n) => calls += walk(inner, &n, t, recs)?,
            None => t.nulls += 1,
        },
        Ty::Record(name, fields) => {
            recs.push((name, ty));
            for (f, fty) in fields {
                let child = node.field(f)?;
                calls += walk(fty, &child, t, recs)?;
            }
            recs.pop();
        }
        Ty::List(inner) => {
            for n in node.elements()? {
                calls += walk(inner, &n, t, recs)?;
            }
        }
        Ty::Children(children) => {
            for c in children {
                let tag = Tag::Name(c.tag.into());
                let nodes = if c.max >= 2 {
                    node.tagged_many(&tag)?
                } else if c.min == 0 {
                    node.tagged_opt(c.tag, &tag)?.into_iter().collect()
                } else {
                    vec![node.tagged_one(c.tag, &tag)?]
                };
                calls += 1;
                if nodes.is_empty() && c.max < 2 {
                    t.nulls += 1;
                }
                for n in nodes {
                    calls += walk(&c.ty, &n, t, recs)?;
                }
            }
        }
        Ty::Rec(name) => {
            let target = recs
                .iter()
                .rev()
                .find(|(n, _)| n == name)
                .map(|(_, ty)| *ty)
                .unwrap_or_else(|| unreachable!("reference to an enclosing {name}"));
            calls += walk(target, node, t, recs)? - 1;
        }
    }
    Ok(calls)
}
