"""emotionforge: facial emotion recognition toolkit.

Submodules (import what you need; the package root stays import-light so the
CLI can configure BLAS threading first):

    imaging    PGM codec, resize, rotation, brightness, blur
    alignment  landmark-based face alignment to 128x128
    augment    deterministic 28-way brightness/blur fan-out
    dataset    manifests, labels, batch decoding
    nn         layer primitives and the EMO-NET architecture
    loss       softmax / sigmoid cross-entropy with gradients
    train      SGD loop and its batch order, model files, gradient checking
    evaluate   confusion matrix, accuracy, RMSE, latency
    stream     per-frame inference with EMA smoothing
    cli        command-line entry point
"""

__version__ = "0.1.0"
