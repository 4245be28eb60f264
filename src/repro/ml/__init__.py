"""A small, real machine-learning library (numpy).

The paper's workflow case studies (Section V) depend on a specific toolbox:
MLP regressors/classifiers, (variational) autoencoders for conformational
latent spaces, random forests for binding-affinity surrogates, PCA/k-means
for analysis, and genetic algorithms for compound search. This package
implements all of them from scratch so the workflow reproductions exercise
genuine training/inference code rather than placeholders.
"""

from repro.ml.autoencoder import Autoencoder, VariationalAutoencoder
from repro.ml.forest import DecisionTreeRegressor, RandomForestRegressor
from repro.ml.ga import GeneticAlgorithm
from repro.ml.kmeans import KMeans
from repro.ml.mlp import MLP, Dense
from repro.ml.pca import PCA

__all__ = [
    "Autoencoder",
    "Dense",
    "DecisionTreeRegressor",
    "GeneticAlgorithm",
    "KMeans",
    "MLP",
    "PCA",
    "RandomForestRegressor",
    "VariationalAutoencoder",
]
