// Package ml implements the machine learning stack of §5 of the paper
// using only the standard library: a support vector machine with an RBF
// kernel trained by sequential minimal optimization (SMO), an AdaBoost.M1
// ensemble with SVM component classifiers (following Li, Wang & Sung,
// "AdaBoost with SVM-based component classifiers"), stratified k-fold
// cross-validation, and TP/FP-rate metrics.
//
// RBF is the one kernel: every model is trained, written, loaded and scored
// under it, one width γ per model. Samples are the sparse binary feature
// vectors of package features, so the kernel reduces to
// exp(-γ(|a|+|b|-2|a∩b|)).
package ml
