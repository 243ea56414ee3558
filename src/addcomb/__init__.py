"""Exact additive-combinatorics toolkit.

Fourier and energy statistics of subsets of finite abelian groups, the
energy-jump structure-extraction pipelines (subspace and Bohr variants),
their corollary drivers, and generators for the two worked example
families.  Everything asserted is computed exactly: integer counts, the
integer Walsh transform on 2-groups, rationals, and Bohr membership on an
exact integer key.  The DFT on general groups is the one floating-point
kernel, and every branch or asserted check read off it goes through one
proven error model, one formula per bound: harmonic.transform_errors for
transforms (transform_error is its one-column call) and
harmonic.conv_errors for convolutions.  Pair counts on general groups are
a rounded float convolution only where conv_errors proves the rounding
exact and one cost rule prefers a transform, and a direct integer count
of the pair sums elsewhere.  Certificates are recounted by integers.

Names are imported from their modules; `import addcomb` loads no submodule.
"""
