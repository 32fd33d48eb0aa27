//! # cleanml-ml
//!
//! From-scratch classifiers and model-selection machinery for the CleanML
//! study. The paper (§III-D) trains seven classical models on structured
//! datasets — Logistic Regression, KNN, Decision Tree, Random Forest,
//! AdaBoost, XGBoost and Naive Bayes — plus, for the robust-ML comparison
//! (§VII-B), a three-layer MLP and the NaCL missing-feature-robust logistic
//! regression. All of them are implemented here on top of the dense
//! [`FeatureMatrix`](cleanml_dataset::FeatureMatrix) produced by
//! `cleanml-dataset`'s encoder:
//!
//! | paper model | module | algorithm |
//! |---|---|---|
//! | Logistic Regression | [`logistic`] | multinomial softmax regression, full-batch gradient descent, L2 |
//! | KNN | [`knn`] | brute-force Euclidean k-nearest neighbours |
//! | Decision Tree | [`tree`] | CART with Gini impurity, sample weights |
//! | Random Forest | [`forest`] | bootstrap-aggregated CART with feature subsampling |
//! | AdaBoost | [`adaboost`] | SAMME over shallow weighted trees |
//! | XGBoost | [`gbdt`] | second-order gradient boosting with regularized leaf weights |
//! | Naive Bayes | [`naive_bayes`] | Gaussian NB with variance smoothing |
//! | MLP (robust-ML baseline) | [`mlp`] | 2-hidden-layer ReLU network, SGD + momentum |
//! | NaCL (robust-ML baseline) | [`nacl`] | feature-dropout logistic regression that tolerates missing inputs |
//!
//! The unifying interface is [`ModelSpec`] (hyper-parameters) →
//! [`ModelSpec::fit`] → [`FittedModel`] (predictions). [`cv`] provides
//! k-fold cross-validation and the random hyper-parameter search the paper
//! uses. Model selection (the paper's R2 relation) compares the trained
//! models' validation scores in `cleanml-core` (`EvalGrid::r2_rows`).

#![forbid(unsafe_code)]

pub mod adaboost;
pub mod codec;
pub mod cv;
pub mod error;
pub mod forest;
pub mod gbdt;
pub mod knn;
pub mod logistic;
pub mod metrics;
pub mod mlp;
pub mod model;
pub mod nacl;
pub mod naive_bayes;
#[cfg(test)]
mod oracle;
mod splitter;
pub mod tree;

pub use codec::{decode_model, encode_model};
pub use error::MlError;
pub use metrics::{accuracy, confusion_matrix, f1_binary, macro_f1, Metric};
pub use model::{FittedModel, ModelKind, ModelSpec, PAPER_MODELS};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MlError>;
