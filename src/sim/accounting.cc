/**
 * @file
 * Per-packet accounting implementation.
 */

#include "accounting.hh"

#include "sim/memmap.hh"

namespace pb::sim
{

PacketRecorder::PacketRecorder(const isa::Program &prog,
                               const BlockMap &blocks, RecorderConfig cfg_)
    : cfg(cfg_),
      progBase(prog.baseAddr),
      progWords(static_cast<uint32_t>(prog.words.size())),
      blockMap(blocks)
{
    wordEpoch.assign(progWords, 0);
    blockEpoch.assign(blockMap.numBlocks(), 0);
    wordTouched.assign(progWords, false);

    std::vector<isa::Inst> decoded;
    decoded.reserve(progWords);
    for (uint32_t word : prog.words)
        decoded.push_back(isa::decode(word));
    runLen = straightLineRuns(decoded);
    runEpoch.assign(progWords, 0);
    classPrefix.assign(progWords + 1, ClassTally{});
    for (uint32_t i = 0; i < progWords; i++) {
        classPrefix[i + 1] = classPrefix[i];
        classPrefix[i + 1][static_cast<size_t>(
            isa::opInfo(decoded[i].op).cls)]++;
    }

    dataTouch.init(layout::dataBase, layout::dataSize);
    packetTouch.init(layout::packetBase, layout::packetSize);
    stackTouch.init(layout::stackBase, layout::stackSize);
}

void
PacketRecorder::onInst(uint32_t addr, const isa::Inst &inst)
{
    current.instCount++;
    totalInsts_++;
    classCounts_[static_cast<size_t>(isa::opInfo(inst.op).cls)]++;

    uint32_t word = (addr - progBase) / 4;
    if (word < progWords)
        markWord(word);
    if (cfg.instTrace)
        current.instTrace.push_back(addr);
}

void
PacketRecorder::beginPacket()
{
    if (inPacket)
        panic("PacketRecorder::beginPacket: packet already open");
    inPacket = true;
    epoch++;
    current = PacketStats{};
}

PacketStats
PacketRecorder::endPacket()
{
    if (!inPacket)
        panic("PacketRecorder::endPacket: no packet open");
    inPacket = false;
    return std::move(current);
}

uint64_t
PacketRecorder::instMemoryBytes() const
{
    // Fetches are aligned 4-byte spans, so distinct executed words
    // map one-to-one onto touched instruction bytes.
    return wordsTouched_ * 4;
}

uint64_t
PacketRecorder::dataMemoryBytes() const
{
    return dataTouch.count + packetTouch.count + stackTouch.count;
}

} // namespace pb::sim
