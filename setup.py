from setuptools import setup, find_packages

setup(
    name="repro",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
)
