"""JSON interchange: structures, fuzzy subsets, reports, census documents."""

from __future__ import annotations

from dataclasses import asdict

from .fuzzy import FuzzySubset
from .ideals import ClassificationReport
from .structure import GammaStructure, StructureError, validate_structure

CLASSIFICATION_SCHEMA = {
    "type": "object",
    "required": ["structure", "classes"],
    "properties": {
        "structure": {"type": "string"},
        "classes": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["holds", "deciders"],
                "properties": {
                    "holds": {"type": "boolean"},
                    "deciders": {"type": "object",
                                 "additionalProperties": {"type": "boolean"}},
                    "witnesses": {"type": "array", "items": {"type": "object"}},
                    "failing_element": {"type": ["string", "null"]},
                },
            },
        },
    },
}

VERDICT_SCHEMA = {
    "type": "object",
    "required": ["theorem", "structure", "outcome"],
    "properties": {
        "theorem": {"type": "string"},
        "structure": {"type": "string"},
        "outcome": {"enum": ["holds", "refuted"]},
        "vacuous": {"type": "boolean"},
        "witness": {"type": ["object", "null"]},
        "battery": {"type": "string"},
    },
}

REPORT_SCHEMA = {
    "type": "object",
    "required": ["tool_version", "structure", "theorems", "timing_seconds"],
    "properties": {
        "tool_version": {"type": "string"},
        "structure": {"type": "string"},
        "theorems": {"type": "array", "items": VERDICT_SCHEMA},
        "timing_seconds": {"type": "number"},
    },
}

CENSUS_SCHEMA = {
    "type": "object",
    "required": ["n", "m", "up_to_iso", "total", "truncated", "classes"],
    "properties": {
        "n": {"type": "integer"},
        "m": {"type": "integer"},
        "up_to_iso": {"type": "boolean"},
        "total": {"type": "integer"},
        "truncated": {"type": "boolean"},
        "classes": {"type": "object",
                    "additionalProperties": {"type": "integer"}},
    },
}


def structure_to_dict(S: GammaStructure) -> dict:
    return {
        "elements": list(S.elements),
        "gammas": list(S.gammas),
        "table": [[list(row) for row in plane] for plane in S.table],
        "order": [list(p) for p in sorted(S.leq)],
    }


def structure_from_dict(doc: dict, require_compat: bool = True) -> GammaStructure:
    if not isinstance(doc, dict):
        raise StructureError("structure document must be a JSON object")
    for key in ("elements", "gammas", "table", "order"):
        if key not in doc:
            raise StructureError(f"structure document missing {key!r}")
    for key in ("elements", "gammas"):
        if not (isinstance(doc[key], list)
                and all(isinstance(v, str) for v in doc[key])):
            raise StructureError(f"{key!r} must be a list of strings")
    if not isinstance(doc["order"], list):
        raise StructureError("'order' must be a list of pairs")
    return validate_structure(doc["elements"], doc["gammas"], doc["table"],
                              doc["order"], require_compat=require_compat)


def fuzzy_from_dict(S: GammaStructure, doc: dict) -> FuzzySubset:
    if not isinstance(doc, dict):
        raise StructureError("fuzzy subset document must be a JSON object")
    unknown = set(doc) - set(S.elements)
    if unknown:
        raise StructureError(f"unknown element labels {sorted(unknown)}")
    return FuzzySubset(S, tuple(doc.get(lbl, 0.0) for lbl in S.elements))


def classification_to_dict(report: ClassificationReport) -> dict:
    return asdict(report)
