"""Bundled example data.

The diabetes study ships with the package: 442 patients, ten baseline
predictors (age, sex, body mass index, mean arterial blood pressure, and
six blood serum measurements), and a quantitative disease-progression
response measured one year later.  Values are in the original measurement
units; the checksum pins the exact bytes ingested when the file was
generated.
"""

import hashlib
from importlib import resources

from .dataio import read_csv

__all__ = [
    "DIABETES_SHA256",
    "load_diabetes",
    "verify_checksum",
]

DIABETES_SHA256 = "5af8461d18194e64abc105de70c654be8cb1a677f6d4009e0fbc3fbbf03fb63f"


def _resource():
    return resources.files("larspath").joinpath("data/diabetes.csv")


def load_diabetes():
    """Raw diabetes table: ``(matrix 442x10, response, labels)``."""
    with resources.as_file(_resource()) as path:
        return read_csv(path, "Y")


def verify_checksum():
    """True when the packaged CSV matches the recorded digest."""
    digest = hashlib.sha256(_resource().read_bytes()).hexdigest()
    return digest == DIABETES_SHA256
