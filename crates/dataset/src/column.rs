//! Typed columnar storage with interned categorical values.

use std::collections::HashMap;

use crate::error::DatasetError;
use crate::schema::{ColumnKind, FieldMeta};
use crate::value::Value;
use crate::Result;

/// Interned identifier of a categorical value within one column's dictionary.
pub type CatId = u32;

/// Physical storage of one column.
///
/// Numeric columns store `Option<f64>` directly. Categorical columns intern
/// each distinct string once and store `Option<CatId>` per row, which makes
/// the frequency counting, mode computation and one-hot encoding used
/// throughout the cleaning algorithms cheap.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Numeric cells; `None` is a missing cell.
    Numeric(Vec<Option<f64>>),
    /// Categorical cells as dictionary ids; `None` is a missing cell.
    Categorical {
        /// Per-row dictionary ids.
        values: Vec<Option<CatId>>,
        /// Id → string. Never shrinks; ids are stable for a column's lifetime.
        dict: Vec<String>,
        /// String → id reverse index.
        index: HashMap<String, CatId>,
    },
}

/// One named, typed column of a [`crate::Table`].
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    meta: FieldMeta,
    data: ColumnData,
}

impl Column {
    /// Creates an empty column for the given field.
    pub fn new(meta: FieldMeta) -> Self {
        let data = match meta.kind {
            ColumnKind::Numeric => ColumnData::Numeric(Vec::new()),
            ColumnKind::Categorical => ColumnData::Categorical {
                values: Vec::new(),
                dict: Vec::new(),
                index: HashMap::new(),
            },
        };
        Column { meta, data }
    }

    /// Creates an empty column with capacity for `n` rows.
    pub fn with_capacity(meta: FieldMeta, n: usize) -> Self {
        let data = match meta.kind {
            ColumnKind::Numeric => ColumnData::Numeric(Vec::with_capacity(n)),
            ColumnKind::Categorical => ColumnData::Categorical {
                values: Vec::with_capacity(n),
                dict: Vec::new(),
                index: HashMap::new(),
            },
        };
        Column { meta, data }
    }

    /// Reassembles a column from raw storage (the artifact codec's decode
    /// path). The categorical reverse index is rebuilt from the dictionary;
    /// any incoming index is ignored. Returns `None` when the storage is
    /// inconsistent: kind mismatch, an id outside the dictionary, or a
    /// duplicate dictionary string.
    ///
    /// This must preserve the dictionary *exactly* — ids, order, and
    /// entries no surviving row references — because downstream tie-breaks
    /// (e.g. the encoder's frequency sort) are keyed on dictionary ids: a
    /// re-interned column would decode to a semantically different table.
    pub(crate) fn from_parts(meta: FieldMeta, data: ColumnData) -> Option<Column> {
        let data = match (meta.kind, data) {
            (ColumnKind::Numeric, ColumnData::Numeric(v)) => ColumnData::Numeric(v),
            (ColumnKind::Categorical, ColumnData::Categorical { values, dict, .. }) => {
                if values.iter().flatten().any(|&id| id as usize >= dict.len()) {
                    return None;
                }
                let index: HashMap<String, CatId> =
                    dict.iter().enumerate().map(|(i, s)| (s.clone(), i as CatId)).collect();
                if index.len() != dict.len() {
                    return None; // duplicate dictionary strings
                }
                ColumnData::Categorical { values, dict, index }
            }
            _ => return None,
        };
        Some(Column { meta, data })
    }

    /// Column metadata.
    pub fn meta(&self) -> &FieldMeta {
        &self.meta
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.meta.name
    }

    /// Column kind.
    pub fn kind(&self) -> ColumnKind {
        self.meta.kind
    }

    /// Raw data storage (for read-heavy algorithms that want typed access).
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Numeric(v) => v.len(),
            ColumnData::Categorical { values, .. } => values.len(),
        }
    }

    /// `true` when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap footprint in bytes: the cells plus, for a
    /// categorical column, its dictionary and reverse index.
    pub fn heap_bytes(&self) -> u64 {
        let bytes = match &self.data {
            ColumnData::Numeric(v) => v.len() * std::mem::size_of::<Option<f64>>(),
            ColumnData::Categorical { values, dict, .. } => {
                values.len() * std::mem::size_of::<Option<CatId>>()
                    + dict.iter().map(|s| 2 * s.len() + 48).sum::<usize>()
            }
        };
        bytes as u64
    }

    /// Number of missing cells.
    pub fn n_missing(&self) -> usize {
        match &self.data {
            ColumnData::Numeric(v) => v.iter().filter(|x| x.is_none()).count(),
            ColumnData::Categorical { values, .. } => values.iter().filter(|x| x.is_none()).count(),
        }
    }

    /// Appends one cell, checking the value kind against the column kind.
    pub fn push(&mut self, value: Value) -> Result<()> {
        match (&mut self.data, value) {
            (ColumnData::Numeric(v), Value::Null) => v.push(None),
            (ColumnData::Numeric(v), Value::Num(x)) => {
                v.push(if x.is_nan() { None } else { Some(x) })
            }
            (ColumnData::Categorical { values, .. }, Value::Null) => values.push(None),
            (ColumnData::Categorical { values, dict, index }, Value::Str(s)) => {
                let id = Self::intern(dict, index, s);
                values.push(Some(id));
            }
            (_, v) => {
                return Err(DatasetError::KindMismatch {
                    column: self.meta.name.clone(),
                    expected: self.meta.kind.name(),
                    got: v.kind_name(),
                })
            }
        }
        Ok(())
    }

    /// Reads the cell at `row` as an owned [`Value`].
    pub fn get(&self, row: usize) -> Result<Value> {
        let n = self.len();
        match &self.data {
            ColumnData::Numeric(v) => v
                .get(row)
                .map(|x| x.map_or(Value::Null, Value::Num))
                .ok_or(DatasetError::RowOutOfBounds { index: row, n_rows: n }),
            ColumnData::Categorical { values, dict, .. } => values
                .get(row)
                .map(|x| match x {
                    Some(id) => Value::Str(dict[*id as usize].clone()),
                    None => Value::Null,
                })
                .ok_or(DatasetError::RowOutOfBounds { index: row, n_rows: n }),
        }
    }

    /// Overwrites the cell at `row`, checking kinds.
    pub fn set(&mut self, row: usize, value: Value) -> Result<()> {
        let n = self.len();
        if row >= n {
            return Err(DatasetError::RowOutOfBounds { index: row, n_rows: n });
        }
        match (&mut self.data, value) {
            (ColumnData::Numeric(v), Value::Null) => v[row] = None,
            (ColumnData::Numeric(v), Value::Num(x)) => {
                v[row] = if x.is_nan() { None } else { Some(x) }
            }
            (ColumnData::Categorical { values, .. }, Value::Null) => values[row] = None,
            (ColumnData::Categorical { values, dict, index }, Value::Str(s)) => {
                let id = Self::intern(dict, index, s);
                values[row] = Some(id);
            }
            (_, v) => {
                return Err(DatasetError::KindMismatch {
                    column: self.meta.name.clone(),
                    expected: self.meta.kind.name(),
                    got: v.kind_name(),
                })
            }
        }
        Ok(())
    }

    /// Numeric cell accessor without allocation; `None` both for missing
    /// cells and for categorical columns.
    pub fn num(&self, row: usize) -> Option<f64> {
        match &self.data {
            ColumnData::Numeric(v) => v.get(row).copied().flatten(),
            ColumnData::Categorical { .. } => None,
        }
    }

    /// Categorical cell accessor as interned id.
    pub fn cat_id(&self, row: usize) -> Option<CatId> {
        match &self.data {
            ColumnData::Categorical { values, .. } => values.get(row).copied().flatten(),
            ColumnData::Numeric(_) => None,
        }
    }

    /// Categorical cell accessor as borrowed string.
    pub fn cat_str(&self, row: usize) -> Option<&str> {
        match &self.data {
            ColumnData::Categorical { values, dict, .. } => {
                values.get(row).copied().flatten().map(|id| dict[id as usize].as_str())
            }
            ColumnData::Numeric(_) => None,
        }
    }

    /// The dictionary string for `id`, if this is a categorical column.
    pub fn dict_str(&self, id: CatId) -> Option<&str> {
        match &self.data {
            ColumnData::Categorical { dict, .. } => dict.get(id as usize).map(String::as_str),
            ColumnData::Numeric(_) => None,
        }
    }

    /// Interns `s` (if this is a categorical column) and returns its id.
    pub fn intern_str(&mut self, s: &str) -> Option<CatId> {
        match &mut self.data {
            ColumnData::Categorical { dict, index, .. } => {
                Some(Self::intern(dict, index, s.to_owned()))
            }
            ColumnData::Numeric(_) => None,
        }
    }

    /// All non-missing numeric values (empty for categorical columns).
    pub fn numeric_values(&self) -> Vec<f64> {
        match &self.data {
            ColumnData::Numeric(v) => v.iter().copied().flatten().collect(),
            ColumnData::Categorical { .. } => Vec::new(),
        }
    }

    /// Frequency of each interned categorical value among non-missing cells.
    /// Returned vector is indexed by [`CatId`]. Empty for numeric columns.
    pub fn category_counts(&self) -> Vec<usize> {
        match &self.data {
            ColumnData::Categorical { values, dict, .. } => {
                let mut counts = vec![0usize; dict.len()];
                for v in values.iter().copied().flatten() {
                    counts[v as usize] += 1;
                }
                counts
            }
            ColumnData::Numeric(_) => Vec::new(),
        }
    }

    /// Number of distinct strings interned in this column (including ones no
    /// longer referenced by any row).
    pub fn dict_len(&self) -> usize {
        match &self.data {
            ColumnData::Categorical { dict, .. } => dict.len(),
            ColumnData::Numeric(_) => 0,
        }
    }

    /// Keeps only the rows whose index satisfies `keep`, preserving order.
    pub(crate) fn retain_rows(&mut self, keep: &[bool]) {
        match &mut self.data {
            ColumnData::Numeric(v) => {
                let mut i = 0;
                v.retain(|_| {
                    let k = keep[i];
                    i += 1;
                    k
                });
            }
            ColumnData::Categorical { values, .. } => {
                let mut i = 0;
                values.retain(|_| {
                    let k = keep[i];
                    i += 1;
                    k
                });
            }
        }
    }

    /// Builds a new column containing the rows at `indices`, in that order.
    /// The categorical dictionary is carried over unchanged so ids remain
    /// comparable between a table and its splits.
    pub(crate) fn gather(&self, indices: &[usize]) -> Column {
        let data = match &self.data {
            ColumnData::Numeric(v) => ColumnData::Numeric(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Categorical { values, dict, index } => ColumnData::Categorical {
                values: indices.iter().map(|&i| values[i]).collect(),
                dict: dict.clone(),
                index: index.clone(),
            },
        };
        Column { meta: self.meta.clone(), data }
    }

    fn intern(dict: &mut Vec<String>, index: &mut HashMap<String, CatId>, s: String) -> CatId {
        if let Some(&id) = index.get(&s) {
            return id;
        }
        let id = dict.len() as CatId;
        dict.push(s.clone());
        index.insert(s, id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FieldMeta;

    fn num_col() -> Column {
        let mut c = Column::new(FieldMeta::num_feature("x"));
        for v in [Value::Num(1.0), Value::Null, Value::Num(3.0)] {
            c.push(v).unwrap();
        }
        c
    }

    fn cat_col() -> Column {
        let mut c = Column::new(FieldMeta::cat_feature("c"));
        for v in ["a", "b", "a"] {
            c.push(Value::from(v)).unwrap();
        }
        c.push(Value::Null).unwrap();
        c
    }

    #[test]
    fn numeric_basics() {
        let c = num_col();
        assert_eq!(c.len(), 3);
        assert_eq!(c.n_missing(), 1);
        assert_eq!(c.num(0), Some(1.0));
        assert_eq!(c.num(1), None);
        assert_eq!(c.numeric_values(), vec![1.0, 3.0]);
        assert_eq!(c.get(1).unwrap(), Value::Null);
    }

    #[test]
    fn categorical_interning() {
        let c = cat_col();
        assert_eq!(c.len(), 4);
        assert_eq!(c.n_missing(), 1);
        assert_eq!(c.cat_id(0), c.cat_id(2));
        assert_ne!(c.cat_id(0), c.cat_id(1));
        assert_eq!(c.cat_str(1), Some("b"));
        assert_eq!(c.dict_len(), 2);
        assert_eq!(c.category_counts(), vec![2, 1]);
    }

    #[test]
    fn kind_mismatch_rejected() {
        let mut c = num_col();
        assert!(c.push(Value::from("oops")).is_err());
        let mut c = cat_col();
        assert!(c.push(Value::Num(1.0)).is_err());
    }

    #[test]
    fn set_and_get() {
        let mut c = num_col();
        c.set(1, Value::Num(9.0)).unwrap();
        assert_eq!(c.num(1), Some(9.0));
        c.set(0, Value::Null).unwrap();
        assert_eq!(c.num(0), None);
        assert!(c.set(99, Value::Null).is_err());
    }

    #[test]
    fn nan_pushed_as_missing() {
        let mut c = Column::new(FieldMeta::num_feature("x"));
        c.push(Value::Num(f64::NAN)).unwrap();
        assert_eq!(c.n_missing(), 1);
        let mut c2 = num_col();
        c2.set(0, Value::Num(f64::NAN)).unwrap();
        assert_eq!(c2.num(0), None);
    }

    #[test]
    fn retain_and_gather() {
        let mut c = num_col();
        c.retain_rows(&[true, false, true]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.num(1), Some(3.0));

        let c = cat_col();
        let g = c.gather(&[2, 0]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.cat_str(0), Some("a"));
        assert_eq!(g.cat_str(1), Some("a"));
        // dictionary carried over, ids comparable
        assert_eq!(g.cat_id(0), c.cat_id(0));
    }

    #[test]
    fn intern_str_stable() {
        let mut c = cat_col();
        let id_a = c.intern_str("a").unwrap();
        assert_eq!(Some(id_a), c.cat_id(0));
        let id_new = c.intern_str("zzz").unwrap();
        assert_eq!(c.dict_str(id_new), Some("zzz"));
    }
}
