"""Desk-scale testbed for studying language-specific vs. language-neutral
representations in a small multilingual encoder.

The package trains a toy MLM-pretrained transformer on a synthetic
multilingual corpus, fine-tunes it under four regimes (frozen probe, plain
fine-tuning, gradient reversal, iterative entropy maximisation) and measures
the resulting representation geometry with probing classifiers, k-means +
V-measure and exact t-SNE.

Importing any langlab module first runs this file, which puts the process
under the one regime every caller shares (langlab.process): numpy's BLAS
on one thread, and freed arrays kept in the heap for reuse.  The
command, library calls, the tests and a notebook therefore write the
same bytes at the same speed, whatever OPENBLAS_NUM_THREADS says.
"""

from langlab.process import keep_heap, pin_one_thread

__version__ = "0.1.0"

pin_one_thread()
keep_heap()
