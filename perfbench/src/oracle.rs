//! The relative-safety oracle: every record conforms to the shape
//! inferred from its corpus (the premise of the paper's §6 safety
//! theorem).

use crate::bench::Outcome;
use crate::gen::Workload;
use tfd_core::{conforms_in, GlobalShape, Shape};
use tfd_value::Value;

/// Checks every record against the inferred shape `g`. `conforms`
/// rejects numbers sent as strings, although inference types them as
/// numbers (a known fault). So a record it rejects passes as that fault
/// when it conforms once those leaves are read as the numbers inference
/// took them for; any other rejection is wrong. Returns true when the
/// operation failed: the known fault showed, or a record was wrong.
pub fn conformance(w: Workload, values: &[Value], g: &GlobalShape, out: &mut Outcome) -> bool {
    let (mut known, mut bad) = (0usize, 0usize);
    for v in values {
        if conforms_in(&g.root, v, Some(&g.env)) {
            continue;
        }
        if w.numbers_as_strings() {
            let mut read = v.clone();
            if numbers_from_strings(&g.root, &mut read) && conforms_in(&g.root, &read, Some(&g.env))
            {
                known += 1;
                continue;
            }
        }
        bad += 1;
    }
    if bad > 0 {
        out.wrong(format!(
            "{bad} of {} records do not conform to the inferred shape",
            values.len()
        ));
    }
    known > 0 || bad > 0
}

/// Replaces each string leaf that sits where `shape` has `int` or
/// `float` and reads as that number by the number. Returns true if any
/// leaf changed.
fn numbers_from_strings(shape: &Shape, v: &mut Value) -> bool {
    let number = match (shape, &*v) {
        (Shape::Int, Value::Str(s)) => s.parse::<i64>().ok().map(Value::Int),
        (Shape::Float, Value::Str(s)) => s.parse::<f64>().ok().map(Value::Float),
        _ => None,
    };
    if let Some(n) = number {
        *v = n;
        return true;
    }
    match (shape, v) {
        (Shape::Nullable(inner), v) => numbers_from_strings(inner, v),
        (Shape::List(element), Value::List(items)) => {
            items.iter_mut().fold(false, |changed, item| {
                numbers_from_strings(element, item) | changed
            })
        }
        (Shape::Record(r), Value::Record { fields, .. }) => {
            let mut changed = false;
            for f in fields.iter_mut() {
                if let Some(fs) = r.fields.iter().find(|fs| fs.name == f.name) {
                    changed |= numbers_from_strings(&fs.shape, &mut f.value);
                }
            }
            changed
        }
        _ => false,
    }
}
