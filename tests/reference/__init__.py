"""Frozen scalar reference implementations (the differential oracle).

These modules are verbatim copies of the scalar loops every hot-path
kernel replaced, taken at the moment the vectorized kernels landed.
They pin the single in-tree implementation of each kernel bit-for-bit.
THE FREEZE RULE: do not edit these files to make a failing differential
test pass — they define the semantics the in-tree kernels must
reproduce exactly.  They may only change when the *intended* algorithm
changes, in the same commit as the matching in-tree change, the golden
corpus and a regression test.

The modules are dependency-free (numpy plus duck-typed hierarchy/box
objects) so they cannot drift along with the production code.
"""
