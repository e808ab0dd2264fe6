"""Unit tests for the plug-in directory loader (§5.1)."""

import os
import stat
import textwrap

import pytest

from repro.monitoring import (
    MonitorContext,
    PluginError,
    builtin_registry,
    load_plugin_dir,
    register_function,
)


@pytest.fixture
def plugin_dir(tmp_path):
    return tmp_path / "plugins"


def write_py(directory, name, body):
    directory.mkdir(exist_ok=True)
    path = directory / name
    path.write_text(textwrap.dedent(body))
    return path


def write_script(directory, name, body):
    directory.mkdir(exist_ok=True)
    path = directory / name
    path.write_text(textwrap.dedent(body))
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return path


class TestPythonPlugins:
    def test_monitors_list_form(self, plugin_dir, loaded_node):
        write_py(plugin_dir, "gpu.py", """\
            MONITORS = [
                ("gpu_count", lambda ctx: 0, True),
                ("gpu_temp", lambda ctx: 35.0),
            ]
            """)
        reg = builtin_registry()
        names = load_plugin_dir(reg, plugin_dir)
        assert sorted(names) == ["gpu_count", "gpu_temp"]
        ctx = MonitorContext(node=loaded_node, t=0.0)
        assert reg.get("gpu_temp").evaluate(ctx) == 35.0
        assert reg.get("gpu_count").static

    def test_single_monitor_function_form(self, plugin_dir, loaded_node):
        write_py(plugin_dir, "myrinet_link.py", """\
            def monitor(ctx):
                return 1
            """)
        reg = builtin_registry()
        assert load_plugin_dir(reg, plugin_dir) == ["myrinet_link"]
        ctx = MonitorContext(node=loaded_node, t=0.0)
        assert reg.get("myrinet_link").evaluate(ctx) == 1

    def test_plugin_sees_node_context(self, plugin_dir, loaded_node):
        write_py(plugin_dir, "ctxprobe.py", """\
            def monitor(ctx):
                return ctx.node.hostname
            """)
        reg = builtin_registry()
        load_plugin_dir(reg, plugin_dir)
        ctx = MonitorContext(node=loaded_node, t=0.0)
        assert reg.get("ctxprobe").evaluate(ctx) == "testnode"

    def test_defineless_python_file_rejected(self, plugin_dir):
        write_py(plugin_dir, "empty.py", "X = 1\n")
        with pytest.raises(PluginError, match="neither"):
            load_plugin_dir(builtin_registry(), plugin_dir)

    def test_broken_import_rejected(self, plugin_dir):
        write_py(plugin_dir, "boom.py", "raise ValueError('no')\n")
        with pytest.raises(PluginError, match="raised on import"):
            load_plugin_dir(builtin_registry(), plugin_dir)


class TestScriptPlugins:
    def test_executable_script_parsed(self, plugin_dir, loaded_node):
        write_script(plugin_dir, "lmsensors", """\
            #!/bin/sh
            echo "fan2_rpm 4800"
            echo "case_temp_c 28.5"
            """)
        reg = builtin_registry()
        assert load_plugin_dir(reg, plugin_dir) == ["lmsensors"]
        ctx = MonitorContext(node=loaded_node, t=0.0)
        values = reg.get("lmsensors").evaluate(ctx)
        assert values == {"fan2_rpm": 4800.0, "case_temp_c": 28.5}

    def test_script_receives_hostname_argument(self, plugin_dir,
                                               loaded_node):
        write_script(plugin_dir, "echoer", """\
            #!/bin/sh
            echo "got_host 1"
            [ "$1" = "testnode" ] && echo "host_match 1"
            """)
        reg = builtin_registry()
        load_plugin_dir(reg, plugin_dir)
        ctx = MonitorContext(node=loaded_node, t=0.0)
        assert reg.get("echoer").evaluate(ctx)["host_match"] == 1.0

    def test_failing_script_raises_plugin_error(self, plugin_dir,
                                                loaded_node):
        write_script(plugin_dir, "dies", "#!/bin/sh\nexit 3\n")
        reg = builtin_registry()
        load_plugin_dir(reg, plugin_dir)
        ctx = MonitorContext(node=loaded_node, t=0.0)
        with pytest.raises(PluginError, match="exited 3"):
            reg.get("dies").evaluate(ctx)

    def test_silent_script_rejected(self, plugin_dir, loaded_node):
        write_script(plugin_dir, "mute", "#!/bin/sh\ntrue\n")
        reg = builtin_registry()
        load_plugin_dir(reg, plugin_dir)
        ctx = MonitorContext(node=loaded_node, t=0.0)
        with pytest.raises(PluginError, match="no 'name value'"):
            reg.get("mute").evaluate(ctx)

    def test_agent_integrates_script_values(self, plugin_dir, kernel,
                                            loaded_node):
        from repro.monitoring import NodeAgent
        write_script(plugin_dir, "extra", "#!/bin/sh\necho 'extra_m 7'\n")
        reg = builtin_registry()
        load_plugin_dir(reg, plugin_dir)
        agent = NodeAgent(kernel, loaded_node, reg)
        delta = agent.sample_once()
        assert delta["extra_m"] == 7.0


class TestDirectoryScan:
    def test_non_executable_non_python_skipped(self, plugin_dir):
        plugin_dir.mkdir()
        (plugin_dir / "README.txt").write_text("docs")
        (plugin_dir / ".hidden.py").write_text("raise Exception")
        assert load_plugin_dir(builtin_registry(), plugin_dir) == []

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(PluginError, match="no such plugin directory"):
            load_plugin_dir(builtin_registry(), tmp_path / "nope")

    def test_register_function_programmatic(self, loaded_node):
        reg = builtin_registry()
        register_function(reg, "quick", lambda ctx: 5, units="x")
        assert reg.get("quick").source == "plugin"


class TestFacadePluginDir:
    def test_clusterworx_loads_plugin_dir(self, tmp_path, plugin_dir):
        from repro.core import ClusterWorX
        write_py(plugin_dir, "site.py", """\
            MONITORS = [("site_flag", lambda ctx: 1, True)]
            """)
        cwx = ClusterWorX(n_nodes=2, seed=99, monitor_interval=5.0,
                          plugin_dir=str(plugin_dir))
        cwx.start()
        cwx.run(10)
        view = cwx.client().node_view(cwx.cluster.hostnames[0])
        assert view["site_flag"] == 1


def _plugin_cluster_outputs(monkeypatch, sort):
    """What leaves a 3-node cluster whose registry holds ``disk_quota``
    (a name that sorts inside the built-ins), with each agent's
    evaluated dict explicitly sorted or as the agent builds it."""
    from repro.core import ClusterWorX
    from repro.gateway import BinaryWire, GatewayState, JsonWire
    from repro.monitoring import (BinaryCodec, Monitor, NodeAgent,
                                  TextCodec, Transmitter)

    evaluate = NodeAgent.evaluate
    if sort:
        monkeypatch.setattr(NodeAgent, "evaluate",
                            lambda self: dict(sorted(evaluate(self).items())))
    sent = []
    transmit = Transmitter.transmit_update
    monkeypatch.setattr(Transmitter, "transmit_update",
                        lambda self, update: sent.append(update)
                        or transmit(self, update))
    cwx = ClusterWorX(n_nodes=3, seed=5, monitor_interval=5.0)
    cwx.registry.add(Monitor("disk_quota", lambda ctx: round(ctx.t) % 7,
                             source="plugin"))
    cwx.start()
    cwx.run(30)
    monkeypatch.undo()
    schema = cwx.registry.names
    codecs = (TextCodec(), BinaryCodec(), BinaryCodec(schema=tuple(schema)))
    frames = [codec.encode(u.hostname, u.time, u.values)
              for u in sent for codec in codecs]
    state = GatewayState(cwx.server)
    with state.lock:
        state.refresh()
    view = state.view
    hosts = [("host", h, view.sim_time, view.snapshot[h])
             for h in cwx.cluster.hostnames]
    bodies = [wire.encode(hosts) for wire in
              (JsonWire(), BinaryWire(metric_schema=schema))]
    bodies.append(JsonWire().encode(state.query()))
    history = cwx.server.history
    return (sent[0].values, frames, bodies, history.metric_names,
            history.export_text())


def test_plugin_key_order_does_not_show(monkeypatch):
    """A plug-in node's dict lists the built-ins and then its plug-ins;
    an explicitly sorted dict gives the same text and binary frames,
    gateway host and query bodies, and history listing."""
    listed, *outputs = _plugin_cluster_outputs(monkeypatch, sort=False)
    assert list(listed)[-1] == "disk_quota" != sorted(listed)[-1]
    assert outputs == list(_plugin_cluster_outputs(monkeypatch,
                                                   sort=True)[1:])
