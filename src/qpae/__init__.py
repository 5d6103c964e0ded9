"""Desk-scale class-unlearning lab for small audio classifiers.

Modules:
    model      dense softmax classifier and SGD training
    checkpoint bit-stable binary serialization with CRC
    audio      WAV parsing, log-mel features, synthetic tone datasets
    data       labeled datasets with forget-set bookkeeping
    eraser     the four-phase forgetting pipeline
    baselines  gradient ascent / negative gradient / Fisher / dampening
    metrics    FA, RA, IL, PER, FAR, FRR, ERB and report serialization
    harness    experiment configs, scenarios, tables
    files      artifact files written whole or not at all
    timing     wall-clock spans of a run's stages
    cli        `qpae` command-line entry point
"""

from .data import LabeledDataset
from .eraser import UnlearnConfig, run_qp_audio_eraser
from .metrics import EvaluationReport, evaluate
from .model import Classifier, TrainConfig, train

__all__ = [
    "LabeledDataset", "UnlearnConfig", "run_qp_audio_eraser",
    "EvaluationReport", "evaluate", "Classifier", "TrainConfig", "train",
]
