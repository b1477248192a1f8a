/**
 * @file
 * Timestamp-based locality classifier (§3.2) — the idealized scheme
 * the RAT heuristic approximates (Fig 12 reference).
 *
 * The directory keeps, per line and per core, a 64-bit last-access
 * timestamp besides the mode and remote utilization. A remote access
 * increments the utilization counter only when the Timestamp check
 * passes: the line's last access (by the requesting core, at the L2)
 * is more recent than the minimum last-access time over the valid
 * lines in the requester's L1 set (communicated with the miss);
 * otherwise the counter resets to 1. The check passes trivially when
 * the requester's set has an invalid way. Promotion happens at PCT.
 */

#ifndef LACC_CORE_TIMESTAMP_CLASSIFIER_HH
#define LACC_CORE_TIMESTAMP_CLASSIFIER_HH

#include "core/classifier.hh"

namespace lacc {

/**
 * The Timestamp classifier's per-core record (Fig 6): the 64-bit
 * last-access timestamp, and a remote utilization that is not
 * saturated (the check resets it, PCT promotes).
 */
struct TimestampLocality
{
    Cycle lastAccess = 0;
    std::uint32_t remoteUtil = 0;
    std::uint8_t ratLevel = 0; //!< maintained, never consulted
    Mode mode = Mode::Private;
    bool active = true;
};
static_assert(std::is_trivially_copyable_v<TimestampLocality>,
              "records are copied as bytes (snapshot restore)");

/** The idealized Timestamp-based classifier. */
class TimestampClassifier : public LocalityClassifier
{
  public:
    TimestampClassifier(const SystemConfig &cfg, bool one_way)
        : LocalityClassifier(cfg, one_way)
    {}

    /** One TimestampLocality per core. */
    static std::uint32_t
    recordBytes(const SystemConfig &cfg)
    {
        return cfg.numCores *
               static_cast<std::uint32_t>(sizeof(TimestampLocality));
    }

    void resetRecord(std::byte *rec) const override;

    Mode classify(std::byte *rec, CoreId core) override;

    bool onRemoteAccess(std::byte *rec, CoreId core,
                        const RemoteAccessContext &ctx) override;

    void onWriteByOther(std::byte *rec, CoreId writer) override;

    Mode onPrivateRemoval(std::byte *rec, CoreId core,
                          std::uint32_t private_util,
                          RemovalKind kind) override;

    void onPrivateGrant(std::byte *rec, CoreId core, Cycle now) override;

    std::optional<CoreLocality> peek(const std::byte *rec,
                                     CoreId core) const override;

  private:
    TimestampLocality *
    records(std::byte *rec) const
    {
        return reinterpret_cast<TimestampLocality *>(rec);
    }
};

} // namespace lacc

#endif // LACC_CORE_TIMESTAMP_CLASSIFIER_HH
