//! The records `run_report.json` and `layout_provenance.json` carry,
//! each declared once. An entry of the `records!` table below names a
//! field and, when it differs from the field, its JSON member; the
//! record's writer and its reader are both generated from the entries,
//! in table order.
//!
//! The records belong to the wpa, linker and profile crates, and the
//! orphan rule lets this crate implement only its own traits for them.
//! So their codec is the doctor-local [`Field`], which defers to
//! telemetry's [`FromJson`] for every primitive.

use crate::provenance::ProvenanceFunction;
use propeller_linker::SymbolPlacement;
use propeller_profile::{MergeProvenance, SourceContribution};
use propeller_telemetry::json::{arr, obj, FromJson, JsonValue, Reader, SchemaError};
use propeller_wpa::exttsp::{Edge, MergeStep, Node, RejectedAlt};
use propeller_wpa::{ClusterProvenance, EdgeKind, FunctionProvenance, FundingRecord};
use std::collections::HashSet;

/// The type of a record's field: how its value is written, and read
/// back from what was written.
pub(crate) trait Field: Sized {
    /// The value as its JSON member.
    fn write(&self) -> JsonValue;

    /// Reads back what [`Field::write`] wrote.
    fn read(r: Reader<'_>) -> Result<Self, SchemaError>;

    /// What an absent or `null` member reads as, as in
    /// [`FromJson::absent`].
    fn absent() -> Option<Self> {
        None
    }
}

/// The member `key` of the object at `r`, read as a `T`.
pub(crate) fn field<T: Field>(r: Reader<'_>, key: &str) -> Result<T, SchemaError> {
    r.member(key, T::absent(), T::read)
}

macro_rules! primitive_fields {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn write(&self) -> JsonValue {
                self.clone().into()
            }

            fn read(r: Reader<'_>) -> Result<$t, SchemaError> {
                <$t>::from_json(r)
            }
        }
    )*};
}
primitive_fields!(String, f64, bool, u32, u64, usize, u128);

/// `None` is `null`.
impl<T: Field> Field for Option<T> {
    fn write(&self) -> JsonValue {
        self.as_ref().map_or(JsonValue::Null, T::write)
    }

    fn read(r: Reader<'_>) -> Result<Option<T>, SchemaError> {
        T::read(r).map(Some)
    }

    fn absent() -> Option<Option<T>> {
        Some(None)
    }
}

impl<T: Field> Field for Vec<T> {
    fn write(&self) -> JsonValue {
        arr(self, T::write)
    }

    fn read(r: Reader<'_>) -> Result<Vec<T>, SchemaError> {
        r.to_arr(T::read)
    }
}

/// A funding record's edge kind, as its label.
impl Field for EdgeKind {
    fn write(&self) -> JsonValue {
        self.label().into()
    }

    fn read(r: Reader<'_>) -> Result<EdgeKind, SchemaError> {
        match String::from_json(r)?.as_str() {
            "branch" => Ok(EdgeKind::Branch),
            "fallthrough" => Ok(EdgeKind::Fallthrough),
            _ => Err(SchemaError::Expected {
                what: "`branch` or `fallthrough`".to_string(),
                path: String::new(),
            }),
        }
    }
}

/// Declares each record's members, in the order its writer emits
/// them. A member is `field` when it has the field's name, `field:
/// "member"` when not; every field of the struct needs one.
macro_rules! records {
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    ($($ty:ident { $($field:ident $(: $key:literal)?),* $(,)? })*) => {$(
        impl Field for $ty {
            fn write(&self) -> JsonValue {
                obj([$((records!(@key $field $($key)?), self.$field.write()),)*])
            }

            fn read(r: Reader<'_>) -> Result<$ty, SchemaError> {
                Ok($ty { $($field: field(r, records!(@key $field $($key)?))?,)* })
            }
        }
    )*};
}

records! {
    // run_report.json
    FunctionProvenance {
        func_symbol: "func", total_samples, hot_blocks, cold_blocks, merge_gains, layout_score,
        input_score, used_input_order, clusters,
    }
    ClusterProvenance { symbol, blocks, weight, size, cold, symbol_order_pos: "order_pos" }
    // layout_provenance.json
    ProvenanceFunction {
        func_symbol: "func", func_index, nodes, edges, steps, evaluations, used_input_order,
        final_score, input_score, order,
    }
    Node { id, size, count }
    Edge { src, dst, weight }
    MergeStep { x, y, gain, split, rejected }
    RejectedAlt { x, y, gain, split }
    FundingRecord { func, src, dst, kind, from, to, weight }
    SymbolPlacement {
        symbol, order, addr, input_size, final_size, deleted_jumps, shrunk_branches,
    }
    MergeProvenance { max_age, decay_num, decay_den, sources }
    SourceContribution { index, weight, age, effective, branch_total }
}

/// The array member `key`, when no two of its rows share the name in
/// their member `member` (a function or symbol): a repeated row would
/// otherwise be silently resolved, one row shadowing the other.
pub(crate) fn unique_rows<T: Field>(
    r: Reader<'_>,
    key: &str,
    member: &str,
) -> Result<Vec<T>, SchemaError> {
    let rows = field(r, key)?;
    let names: Vec<String> = r.member(key, None, |a| a.to_arr(|row| row.get(member)))?;
    let mut seen = HashSet::new();
    match names.iter().position(|name| !seen.insert(name)) {
        None => Ok(rows),
        Some(i) => Err(SchemaError::Expected {
            what: "a name no earlier row has".to_string(),
            path: format!("{key}[{i}].{member}"),
        }),
    }
}
