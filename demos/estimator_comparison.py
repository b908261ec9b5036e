"""
Paired-seed estimator comparison from scenario files
====================================================

The comparison runner executes plain, cv-single, and cv-multi on the same
per-run random draws (paired seeds), so the variance-ratio column is a
clean head-to-head: multi <= single <= plain up to sampling noise.
"""

from pathlib import Path

from cvmc.cli import compare_estimators

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

for name in ("asian_fixed_benchmark.yaml", "lookback_benchmark.yaml"):
    comparison = compare_estimators(str(SCENARIOS / name), runs=30_000)
    print(f"== {name}")
    print(comparison.to_table())
    print()

# CSV export of the same table, e.g. for a spreadsheet
comparison = compare_estimators(str(SCENARIOS / "asian_fixed_benchmark.yaml"), runs=30_000)
print("== csv export")
print(comparison.to_csv())
