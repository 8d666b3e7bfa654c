"""Setuptools shim so `pip install -e .` works without the wheel package."""
from setuptools import setup

setup(install_requires=["numpy"])
