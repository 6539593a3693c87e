//! The central [`Table`] type: schema + columns + row operations.

use crate::column::Column;
use crate::error::DatasetError;
use crate::schema::Schema;
use crate::split::split_indices;
use crate::value::Value;
use crate::Result;

/// A mixed-type, column-oriented dataset.
///
/// All CleanML experiment stages — error injection, detection, repair,
/// encoding — operate on `Table`s. Rows are addressed by position; columns by
/// position or name. Tables are cheap to clone relative to experiment cost
/// and cleaning algorithms generally work on an owned copy, mirroring the
/// paper's protocol of producing a *cleaned version* of the dirty dataset
/// rather than mutating it in place.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    n_rows: usize,
}

impl Table {
    /// Creates an empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        let columns = schema.fields().iter().cloned().map(Column::new).collect();
        Table { schema, columns, n_rows: 0 }
    }

    /// Creates an empty table with row capacity `n`.
    pub fn with_capacity(schema: Schema, n: usize) -> Self {
        let columns =
            schema.fields().iter().cloned().map(|f| Column::with_capacity(f, n)).collect();
        Table { schema, columns, n_rows: 0 }
    }

    /// Reassembles a table from complete columns (the artifact codec's
    /// decode path). Returns `None` when the columns are ragged or disagree
    /// with the schema.
    pub(crate) fn from_columns(schema: Schema, columns: Vec<Column>) -> Option<Table> {
        if schema.len() != columns.len() {
            return None;
        }
        let n_rows = columns.first().map_or(0, |c| c.len());
        if columns.iter().any(|c| c.len() != n_rows) {
            return None;
        }
        if schema.fields().iter().zip(&columns).any(|(f, c)| f != c.meta()) {
            return None;
        }
        Some(Table { schema, columns, n_rows })
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_columns(&self) -> usize {
        self.columns.len()
    }

    /// `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Column at `index`.
    pub fn column(&self, index: usize) -> Result<&Column> {
        self.columns
            .get(index)
            .ok_or(DatasetError::ColumnOutOfBounds { index, n_columns: self.columns.len() })
    }

    /// Mutable column at `index`.
    pub fn column_mut(&mut self, index: usize) -> Result<&mut Column> {
        let n = self.columns.len();
        self.columns.get_mut(index).ok_or(DatasetError::ColumnOutOfBounds { index, n_columns: n })
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        let idx = self.schema.index_of(name)?;
        self.column(idx)
    }

    /// All columns in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Approximate heap footprint of the cells in bytes.
    pub fn heap_bytes(&self) -> u64 {
        self.columns.iter().map(Column::heap_bytes).sum()
    }

    /// Appends one row. The row must have one value per column, kind-checked.
    ///
    /// On arity or kind mismatch the table is left unchanged.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(DatasetError::RowArity { expected: self.columns.len(), got: row.len() });
        }
        // Validate kinds first so a failed push cannot leave ragged columns.
        for (col, v) in self.columns.iter().zip(&row) {
            let ok = matches!(
                (col.kind(), v),
                (_, Value::Null)
                    | (crate::ColumnKind::Numeric, Value::Num(_))
                    | (crate::ColumnKind::Categorical, Value::Str(_))
            );
            if !ok {
                return Err(DatasetError::KindMismatch {
                    column: col.name().to_owned(),
                    expected: col.kind().name(),
                    got: v.kind_name(),
                });
            }
        }
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(v).expect("kinds pre-validated");
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Reads the cell at (`row`, `col`).
    pub fn get(&self, row: usize, col: usize) -> Result<Value> {
        self.column(col)?.get(row)
    }

    /// Overwrites the cell at (`row`, `col`).
    pub fn set(&mut self, row: usize, col: usize, value: Value) -> Result<()> {
        self.column_mut(col)?.set(row, value)
    }

    /// Materializes row `row` as owned values.
    pub fn row(&self, row: usize) -> Result<Vec<Value>> {
        if row >= self.n_rows {
            return Err(DatasetError::RowOutOfBounds { index: row, n_rows: self.n_rows });
        }
        self.columns.iter().map(|c| c.get(row)).collect()
    }

    /// Keeps only rows where `keep[i]` is true, preserving order.
    ///
    /// # Panics
    /// Panics if `keep.len() != self.n_rows()`.
    pub fn retain_rows(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.n_rows, "retain mask length mismatch");
        for col in &mut self.columns {
            col.retain_rows(keep);
        }
        self.n_rows = keep.iter().filter(|&&k| k).count();
    }

    /// Builds a new table containing the rows at `indices`, in that order.
    /// Indices may repeat (useful for bootstrap sampling).
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn gather(&self, indices: &[usize]) -> Table {
        for &i in indices {
            assert!(i < self.n_rows, "gather index {i} out of bounds ({} rows)", self.n_rows);
        }
        let columns: Vec<Column> = self.columns.iter().map(|c| c.gather(indices)).collect();
        Table { schema: self.schema.clone(), columns, n_rows: indices.len() }
    }

    /// Splits into (train, test) with the given test fraction, shuffling rows
    /// with a deterministic RNG seeded by `seed`. CleanML uses a 70/30 split
    /// (`test_fraction = 0.3`) across 20 seeds.
    pub fn split(&self, test_fraction: f64, seed: u64) -> Result<(Table, Table)> {
        if self.n_rows == 0 {
            return Err(DatasetError::Empty("table to split"));
        }
        let (train_idx, test_idx) = split_indices(self.n_rows, test_fraction, seed);
        Ok((self.gather(&train_idx), self.gather(&test_idx)))
    }

    /// Index of the label column.
    pub fn label_index(&self) -> Result<usize> {
        self.schema.label_index()
    }

    /// Class labels as interned categorical ids, erroring on missing labels.
    pub fn labels(&self) -> Result<Vec<u32>> {
        let idx = self.label_index()?;
        let col = self.column(idx)?;
        (0..self.n_rows)
            .map(|r| {
                col.cat_id(r).ok_or(DatasetError::Encode(format!("row {r} has a missing label")))
            })
            .collect()
    }

    /// Rows whose cell in column `col` is missing.
    pub fn missing_rows(&self, col: usize) -> Result<Vec<usize>> {
        let c = self.column(col)?;
        Ok((0..self.n_rows)
            .filter(|&r| match c.data() {
                crate::ColumnData::Numeric(v) => v[r].is_none(),
                crate::ColumnData::Categorical { values, .. } => values[r].is_none(),
            })
            .collect())
    }

    /// Total number of missing cells across feature columns.
    pub fn n_missing_cells(&self) -> usize {
        self.schema.feature_indices().into_iter().map(|i| self.columns[i].n_missing()).sum()
    }

    /// Drops every row that has at least one missing cell in a feature
    /// column. This is CleanML's "deletion" baseline for missing values
    /// (paper Table 5 treats the deleted dataset as the *dirty* version).
    pub fn drop_rows_with_missing(&self) -> Table {
        let feat = self.schema.feature_indices();
        let keep: Vec<bool> = (0..self.n_rows)
            .map(|r| {
                feat.iter().all(|&c| match self.columns[c].data() {
                    crate::ColumnData::Numeric(v) => v[r].is_some(),
                    crate::ColumnData::Categorical { values, .. } => values[r].is_some(),
                })
            })
            .collect();
        let mut t = self.clone();
        t.retain_rows(&keep);
        t
    }

    /// Per-class row counts keyed by label id (for imbalance checks and
    /// stratified mislabel injection).
    pub fn class_counts(&self) -> Result<Vec<(u32, usize)>> {
        let labels = self.labels()?;
        let mut counts: std::collections::BTreeMap<u32, usize> = std::collections::BTreeMap::new();
        for l in labels {
            *counts.entry(l).or_insert(0) += 1;
        }
        Ok(counts.into_iter().collect())
    }
}

impl std::fmt::Display for Table {
    /// Renders the first rows as an aligned text table (debugging aid).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let max_rows = 10.min(self.n_rows);
        let header: Vec<&str> = self.schema.fields().iter().map(|m| m.name.as_str()).collect();
        writeln!(f, "{}", header.join(" | "))?;
        for r in 0..max_rows {
            let cells: Vec<String> = self
                .columns
                .iter()
                .map(|c| c.get(r).map(|v| v.to_string()).unwrap_or_default())
                .collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        if self.n_rows > max_rows {
            writeln!(f, "... ({} rows total)", self.n_rows)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{FieldMeta, Schema};

    fn sample() -> Table {
        let schema = Schema::new(vec![
            FieldMeta::num_feature("x"),
            FieldMeta::cat_feature("c"),
            FieldMeta::label("y"),
        ]);
        let mut t = Table::new(schema);
        for (x, c, y) in [
            (Some(1.0), Some("a"), "p"),
            (Some(2.0), Some("b"), "n"),
            (None, Some("a"), "p"),
            (Some(4.0), None, "n"),
            (Some(5.0), Some("b"), "p"),
        ] {
            t.push_row(vec![Value::from(x), Value::from(c), Value::from(y)]).unwrap();
        }
        t
    }

    #[test]
    fn push_and_get() {
        let t = sample();
        assert_eq!(t.n_rows(), 5);
        assert_eq!(t.n_columns(), 3);
        assert_eq!(t.get(0, 0).unwrap(), Value::Num(1.0));
        assert_eq!(t.get(2, 0).unwrap(), Value::Null);
        assert_eq!(t.get(1, 1).unwrap(), Value::Str("b".into()));
    }

    #[test]
    fn push_row_arity_checked() {
        let mut t = sample();
        assert!(matches!(t.push_row(vec![Value::Num(1.0)]), Err(DatasetError::RowArity { .. })));
        // failed kind check must not corrupt the table
        let before = t.n_rows();
        let bad = t.push_row(vec![Value::from("str"), Value::from("a"), Value::from("p")]);
        assert!(bad.is_err());
        assert_eq!(t.n_rows(), before);
        for c in t.columns() {
            assert_eq!(c.len(), before);
        }
    }

    #[test]
    fn missing_accounting() {
        let t = sample();
        assert_eq!(t.n_missing_cells(), 2);
        assert_eq!(t.missing_rows(0).unwrap(), vec![2]);
        assert_eq!(t.missing_rows(1).unwrap(), vec![3]);
    }

    #[test]
    fn drop_rows_with_missing_keeps_complete_rows() {
        let t = sample();
        let d = t.drop_rows_with_missing();
        assert_eq!(d.n_rows(), 3);
        assert_eq!(d.n_missing_cells(), 0);
        // label column not considered a feature: rows only dropped for feature nulls
        assert_eq!(d.get(0, 0).unwrap(), Value::Num(1.0));
    }

    #[test]
    fn labels_and_classes() {
        let t = sample();
        let labels = t.labels().unwrap();
        assert_eq!(labels.len(), 5);
        let counts = t.class_counts().unwrap();
        let total: usize = counts.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 5);
        assert_eq!(counts.len(), 2);
    }

    #[test]
    fn split_is_deterministic_and_disjoint() {
        let t = sample();
        let (tr1, te1) = t.split(0.4, 7).unwrap();
        let (tr2, te2) = t.split(0.4, 7).unwrap();
        assert_eq!(tr1, tr2);
        assert_eq!(te1, te2);
        assert_eq!(tr1.n_rows() + te1.n_rows(), t.n_rows());
        let (tr3, _) = t.split(0.4, 8).unwrap();
        // different seed should (almost surely) change the split on 5 rows
        assert!(tr3 != tr1 || t.n_rows() < 2);
    }

    #[test]
    fn gather_repeats_and_reorders() {
        let t = sample();
        let g = t.gather(&[4, 4, 0]);
        assert_eq!(g.n_rows(), 3);
        assert_eq!(g.get(0, 0).unwrap(), Value::Num(5.0));
        assert_eq!(g.get(1, 0).unwrap(), Value::Num(5.0));
        assert_eq!(g.get(2, 0).unwrap(), Value::Num(1.0));
    }

    #[test]
    fn retain_rows_mask() {
        let mut t = sample();
        t.retain_rows(&[true, false, false, false, true]);
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.get(1, 0).unwrap(), Value::Num(5.0));
    }

    #[test]
    fn display_renders() {
        let t = sample();
        let s = t.to_string();
        assert!(s.contains("x | c | y"));
    }

    #[test]
    fn empty_split_errors() {
        let t = Table::new(Schema::new(vec![FieldMeta::num_feature("x")]));
        assert!(t.split(0.3, 1).is_err());
    }
}
