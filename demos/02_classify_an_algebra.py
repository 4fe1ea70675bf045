"""Classify a Lie algebra from its bracket table, end to end.

The bracket table below is the four-dimensional worked example bundled
with the corpus: [e3,e1] = e1, [e3,e4] = e2.  The script parses it,
validates the Jacobi identity, shows the symbolic bracket matrix, and
walks through the quantities behind the verdict.
Run with: python3 demos/02_classify_an_algebra.py
"""

from liepencil import build_ax, classify, parse_text, pencil_profile, validate

SOURCE = """\
dim 4
[e3,e1] = e1
[e3,e4] = e2
"""

alg = parse_text(SOURCE).with_name("example")
report = validate(alg)
print("Jacobi identity:", "holds" if report.ok else "fails")

ax = build_ax(alg)
print()
print("bracket matrix A_x:")
for row in ax.rows():
    print("  [", ",  ".join(f"{e!s:>4}" for e in row), "]")

profile = pencil_profile(alg)
print()
print("generic rank :", profile.generic_rank)
print("index        :", profile.index)
print("p0           :", profile.p0)
print("p(lambda)    :", profile.p_lambda)
print("route        :", profile.route)

# rank-sized principal Pfaffians whose gcd is p0
print()
print("2x2 principal Pfaffians:")
for subset, pf in profile.pfaffians:
    print(f"  {subset}: {pf}")

result = classify(alg)
print()
print(result.sentence)

# A parametric family: one symbolic run covers every admissible value,
# and classify_family corroborates at sampled parameter values.
from liepencil import classify_family

FAMILY = """\
dim 3
param a != 0
[e3,e1] = e1
[e3,e2] = a*e2
"""
fam = classify_family(parse_text(FAMILY).with_name("book"), samples=3, seed=1)
print()
print(f"family verdict: {fam.symbolic.verdict}")
for pt in fam.samples:
    print(f"  at {pt.describe_values()}: {pt.report.verdict}")
