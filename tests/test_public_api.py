import segrent as sg
from segrent import convex_roof, errors, measures, segre_ideal, tensor_core

PUBLIC = [
    "BoxTensor", "ConfigError", "Decomposition", "DegenerateStateError", "DensityMatrix",
    "DensityMatrixError", "DimensionError", "Dims", "GeneratorSpecError", "IsometryError",
    "MeasureConfig", "MeasureReport", "MembershipReport", "MinorSpec", "NormalizationError",
    "PartitionError", "PermClass", "RoofConfig", "RoofEstimate", "SegrentError",
    "StateFileError", "UnsupportedStateError", "__version__", "bipartite_concurrence_oracle",
    "check_partition_commutativity", "eigen_ensemble", "ensemble_from_isometry",
    "enumerate_perm_classes", "enumerate_segre_generators", "evaluate_minor",
    "evaluate_perm_minor", "flat_index", "iter_segre_generators", "make_state", "measure_E",
    "measure_F", "multi_index", "named_state", "random_state", "reduced_purity", "roof_F",
    "segre_embed", "segre_residual", "t_variety_residual", "wootters_oracle",
]
MODULES = (tensor_core, segre_ideal, measures, convex_roof, errors)


def test_public_names_are_pinned_and_resolve():
    assert sorted(sg.__all__) == PUBLIC
    for name in sg.__all__:
        getattr(sg, name)


def test_each_public_name_has_one_owning_module():
    for name in sg.__all__:
        if name == "__version__":
            continue
        owners = [m for m in MODULES if name in m.__all__]
        assert len(owners) == 1, name
        assert getattr(owners[0], name) is getattr(sg, name)
