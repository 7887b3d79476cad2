"""
Descriptor files, the faithfulness probe, and deterministic reports
===================================================================

Representations can come from JSON descriptors instead of code: a list
of generator images in the canonical algebra basis, which fixes both the
representation and its prolongation (catalog entries are named with
``--rep <name>`` instead).  Descriptors are validated on load, exactly
and without sampling: for compact groups the one-parameter loops must
close, which catches perturbed generators that a small-angle sampling
test would miss, and the images must keep the brackets of the algebra
basis.

The faithfulness probe decides exactly, without sampling, whether the
prolongation is injective.  Its image [[R, 0], [K R, R]] is the identity
only when R = I and K = 0, so the probe looks for a kernel of the
differential and then for a central element sent to the identity.  For a
representation with a kernel, the probe fails with an explicit witness.
That failure is the documented, expected outcome for such inputs: a
prolongation can only be injective when the representation itself is.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from lieprolong import (
    DescriptorError,
    catalog_entry,
    check_homomorphism,
    faithfulness_probe,
    load_representation,
)

# A generator descriptor for the angle-doubling map: one generator for
# the circle, sent to twice the rotation generator.
descriptor = {
    "name": "winding_from_file",
    "group": {"kind": "Circle", "dim": 2},
    "target_dim": 2,
    "map": {
        "kind": "generators",
        "generator_images": [[[0.0, 2.0], [-2.0, 0.0]]],
    },
}

rep = load_representation(descriptor)
print("loaded:", rep.name)
print("homomorphism check:", check_homomorphism(rep, 100, seed=12).verdict.value)

# Perturb the generator: exp(2*pi*D) no longer closes, so the loader
# rejects the descriptor and says which generator is at fault.
broken = json.loads(json.dumps(descriptor))
broken["map"]["generator_images"] = [[[0.0, 2.01], [-2.01, 0.0]]]
try:
    load_representation(broken)
except DescriptorError as exc:
    print("rejected perturbed generators:", exc.witness)

# Faithfulness: the identity-map representations pass; the angle
# doubler, loaded from the catalog or from the file above alike, collides
# on the half turn, and the constant map on a whole fiber direction.
print()
probe = faithfulness_probe(catalog_entry("gl_identity(2)").rep)
print("gl_identity(2):", probe.verdict.value,
      f"(rank {probe.witness['rank']}, margin {probe.witness['margin']:.2f})")

for name, source in (
    ("circle_winding_2", catalog_entry("circle_winding_2").rep),
    ("winding_from_file", rep),
    ("trivial(1)", catalog_entry("trivial(1)").rep),
):
    probe = faithfulness_probe(source)
    witness = probe.witness
    print(f"{name}:", probe.verdict.value, "-", witness["kind"],
          f"({witness['part']} part, coordinates {witness['coordinates']},"
          f" fiber {witness['fiber']})")

# The same checks run from the command line and emit canonical JSON:
# identical seeds give byte-identical reports, which makes the output
# diffable across machines and runs.
with tempfile.TemporaryDirectory() as scratch:
    path = Path(scratch) / "report.json"
    subprocess.run(
        [sys.executable, "-m", "lieprolong", "check",
         "--rep", "circle_rotation", "--suite", "homomorphism",
         "--seed", "42", "--output", str(path)],
        check=True,
    )
    document = json.loads(path.read_text())
    print()
    print("CLI verdicts:", [c["verdict"] for c in document["checks"]])
