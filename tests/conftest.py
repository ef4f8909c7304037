import os
from contextlib import contextmanager

import numpy as np
import pytest

from threadsum.autodiff import Node
from threadsum.tokenizer import Tokenizer

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture(scope="session")
def fixture_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def tiny_tokenizer():
    return Tokenizer.load(os.path.join(FIXTURES, "tinyvocab"))


def _zero_fill_accumulate(self, g):
    if self.grad is None:
        self.grad = np.zeros(self.shape, self.dtype)
    self.grad += g


def _zero_fill_buffer(self):
    if self.grad is None:
        self.grad = np.zeros(self.shape, self.dtype)
    return self.grad


@contextmanager
def _zero_fill():
    # the reference zero-fills every first gradient and owns every buffer
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Node, "accumulate_grad", _zero_fill_accumulate)
        mp.setattr(Node, "grad_buffer", _zero_fill_buffer)
        yield


@pytest.fixture(scope="session")
def zero_fill_reference():
    """A context manager under which gradients accumulate into zero-filled
    buffers of each node's own, never keeping an array handed over: the
    reference for the hand-over rule."""
    return _zero_fill
