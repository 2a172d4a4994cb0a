"""Object-file / schema factorized recurrent networks.

Active slots hold per-entity state; a shared bank of GRU parameterizations
(schemata) supplies their updates, selected each step by hard Gumbel
attention. Includes a taped float64 autodiff core, synthetic video and
adding tasks, a training harness with a monolithic GRU baseline, and a CLI.
"""
