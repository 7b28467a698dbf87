"""Character BiLSTM-CRF sequence tagger trained from scratch."""

from emrkg.tagger.model import TaggerModel, load_model, predict, save_model
from emrkg.tagger.train import TrainConfig, TrainResult, train
from emrkg.tagger.vocab import TagSet, Vocabulary

__all__ = [
    "TaggerModel",
    "TagSet",
    "TrainConfig",
    "TrainResult",
    "Vocabulary",
    "load_model",
    "predict",
    "save_model",
    "train",
]
