"""Program-memory and decoder-ROM footprints (beyond the paper's tables).

Fig. 1 gives every TEP a program memory and the PSCP a microprogram decoder;
the paper reports only CLB totals.  This benchmark quantifies the software
side: assembled program-image size (16-bit Harvard program-memory words) and
decoder-ROM size (microinstruction words) per architecture — the quantities
that bound the memories a real PSCP version would need.
"""

from repro.flow import ascii_table, build_system
from repro.isa import MD16_TEP, MINIMAL_TEP, assemble, program_size_words
from repro.workloads import SMD_ROUTINES, smd_chart


def test_program_memory_footprints(smd, benchmark):
    def measure():
        rows = []
        for name, arch, specialize in [
                ("minimal 8-bit", MINIMAL_TEP, False),
                ("16-bit M/D", MD16_TEP, False),
                ("16-bit M/D optimized",
                 MD16_TEP.with_(microcode_optimized=True), True)]:
            system = build_system(smd, SMD_ROUTINES, arch,
                                  specialize=specialize)
            program = list(system.image.program.instructions)
            rows.append((name,
                         len(program),
                         assemble(program).size_words,
                         system.decoder_rom().size_words))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    print()
    print(ascii_table(
        ["Architecture", "instructions", "program words (16-bit)",
         "decoder ROM words"],
        rows, title="Program memory and decoder ROM footprints"))

    by_name = {row[0]: row for row in rows}
    # the 8-bit machine needs far more instructions (multi-word sequences
    # plus the software multiply/divide helpers)
    assert by_name["minimal 8-bit"][1] > 1.5 * by_name["16-bit M/D"][1]
    # every image must be addressable by the 16-bit PC model
    for name, n_instr, words, rom in rows:
        assert words < 65536
        # the decoder ROM must fit the 8-bit microaddress space
        assert rom <= 256
    # specialization adds clones: more instructions, same decoder ROM order
    assert by_name["16-bit M/D optimized"][1] > 0
    benchmark.extra_info["rows"] = rows
