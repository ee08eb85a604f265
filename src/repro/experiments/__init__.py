"""The paper's reproducible artifacts: figure scenarios and analytical
experiments, one submodule each (see DESIGN.md for the experiment
index); :mod:`repro.experiments.cli` runs them and checks their claims."""
