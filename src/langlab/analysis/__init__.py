"""Representation-geometry measurement: macro F1, k-means with averaged
V-measure, exact t-SNE, and the stratified plot-sampling rules."""
