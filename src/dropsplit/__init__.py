"""Temporal train/test splitting and evaluation for longitudinal academic records."""

__version__ = "0.1.0"

from .classifiers import ClassifierSpec, TrainedModel, accuracy, confusion, fit, predict
from .features import FeatureSetSpec
from .records import Cohort, EnrollmentStatus, IngestConfig, StudentStructure, ingest
from .splits import LabeledDataset, SplitApproach, SplitRequest, build_split
from .evaluation import predict_enrolled, render_report, run_grid, score_points
from .synthgen import GeneratorConfig, generate
from .terms import Term, TermRange, format_term, next_term, parse_term, prev_term, term_distance
