"""Deterministic simulator of decentralized federated learning.

Clients train a shared-architecture model on private data and fuse
models peer-to-peer without a central server, using either mutual
knowledge transfer or one of two model-averaging baselines.
"""

__version__ = "0.1.0"
