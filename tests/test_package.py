import inspect

import trustnet

ENTRY_POINTS = {
    "PipelineConfig", "PipelineResult", "StageError", "emit_figures", "run_pipeline",
    "SyntheticSpec", "generate_synthetic",
}


def test_package_exports_only_the_pipeline_entry_points():
    # building blocks are reached through their modules, so a wrapper set on a
    # module attribute (trustnet.nec.louvain, say) sees every call
    public = {name for name, value in vars(trustnet).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == ENTRY_POINTS
    assert not hasattr(trustnet, "__all__")
