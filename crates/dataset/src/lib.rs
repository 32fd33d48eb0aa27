//! # cleanml-dataset
//!
//! Columnar, mixed-type tabular data substrate for the CleanML study.
//!
//! The CleanML paper (ICDE 2021) evaluates data-cleaning algorithms on
//! real-world tabular datasets containing numeric and categorical columns,
//! missing cells, outliers, duplicated rows, inconsistent string values and
//! mislabeled examples. This crate provides the data plane those experiments
//! run on:
//!
//! * [`Value`] — a single cell (null, numeric, or categorical/string).
//! * [`Column`] — typed columnar storage with interned categorical values.
//! * [`Schema`] / [`FieldMeta`] — column names, kinds and roles
//!   (feature / label / key / ignore).
//! * [`Table`] — the dataset itself: row/column access, mutation, filtering,
//!   seeded 70/30 train–test splits, and per-column statistics computed while
//!   skipping nulls (the building blocks of every cleaning algorithm).
//! * [`encode`] — fit-on-train feature encoding (standardized numerics,
//!   frequency-capped one-hot categoricals) producing the dense
//!   [`encode::FeatureMatrix`] consumed by `cleanml-ml`.
//! * [`csv`] — minimal CSV reader/writer with kind inference, used by the
//!   examples and for dumping generated datasets.
//!
//! Everything is deterministic under a caller-provided seed; no global RNG
//! state is used anywhere.
//!
//! ```
//! use cleanml_dataset::{Table, Schema, FieldMeta, ColumnKind, ColumnRole, Value};
//!
//! let schema = Schema::new(vec![
//!     FieldMeta::new("age", ColumnKind::Numeric, ColumnRole::Feature),
//!     FieldMeta::new("city", ColumnKind::Categorical, ColumnRole::Feature),
//!     FieldMeta::new("label", ColumnKind::Categorical, ColumnRole::Label),
//! ]);
//! let mut t = Table::new(schema);
//! t.push_row(vec![Value::from(34.0), Value::from("NYC"), Value::from("yes")]).unwrap();
//! t.push_row(vec![Value::Null, Value::from("SF"), Value::from("no")]).unwrap();
//! assert_eq!(t.n_rows(), 2);
//! assert_eq!(t.column(0).unwrap().n_missing(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod codec;
pub mod column;
pub mod csv;
pub mod encode;
pub mod error;
pub mod schema;
pub mod split;
pub mod stats;
pub mod table;
pub mod value;

pub use column::{Column, ColumnData};
pub use encode::{Encoder, FeatureMatrix};
pub use error::DatasetError;
pub use schema::{ColumnKind, ColumnRole, FieldMeta, Schema};
pub use table::Table;
pub use value::Value;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DatasetError>;
