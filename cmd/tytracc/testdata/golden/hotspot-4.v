// Generated by the TyTra back-end compiler from module "hotspot".
// Kernel HDL for integration with an HLS base platform (see Fig 16).

// ---- TyTra primitive cores ----

// Offset window: buffers DEPTH elements of a stream and exposes the
// whole window; taps select stencil neighbours (Fig 13's offset
// buffers). AHEAD is the number of elements the controller runs ahead
// of the datapath wave.
module tytra_offset_window #(
    parameter WIDTH = 18,
    parameter DEPTH = 4
) (
    input  wire             clk,
    input  wire             rst,
    input  wire             en,
    input  wire [WIDTH-1:0] din,
    output wire [DEPTH*WIDTH-1:0] window
);
    reg [WIDTH-1:0] buf_r [0:DEPTH-1];
    integer i;
    always @(posedge clk) begin
        if (rst) begin
            for (i = 0; i < DEPTH; i = i + 1) buf_r[i] <= {WIDTH{1'b0}};
        end else if (en) begin
            buf_r[0] <= din;
            for (i = 1; i < DEPTH; i = i + 1) buf_r[i] <= buf_r[i-1];
        end
    end
    genvar k;
    generate
        for (k = 0; k < DEPTH; k = k + 1) begin : taps
            assign window[(k+1)*WIDTH-1:k*WIDTH] = buf_r[k];
        end
    endgenerate
endmodule

// Behavioural integer square root (one result per cycle after fill).
module tytra_isqrt #(
    parameter WIDTH = 18
) (
    input  wire [WIDTH-1:0] a,
    output wire [WIDTH-1:0] q
);
    function [WIDTH-1:0] isqrt_f;
        input [WIDTH-1:0] v;
        reg [WIDTH-1:0] x, b;
        begin
            x = 0;
            b = 1 << (WIDTH - 2);
            while (b != 0) begin
                if (v >= x + b) begin
                    v = v - (x + b);
                    x = (x >> 1) + b;
                end else begin
                    x = x >> 1;
                end
                b = b >> 2;
            end
            isqrt_f = x;
        end
    endfunction
    assign q = isqrt_f(a);
endmodule

// Datapath of @f0: pipeline depth 11.
module tytra_f0_dp (
    input  wire clk,
    input  wire rst,
    input  wire in_valid,
    input  wire [23:0] in_t,
    input  wire [23:0] in_power,
    input  wire [23:0] in_rx,
    input  wire [23:0] in_ry,
    input  wire [23:0] in_rz,
    output wire [23:0] out_t_new,
    input  wire [23:0] in_te,
    input  wire [23:0] in_tw,
    input  wire [23:0] in_tn,
    input  wire [23:0] in_ts,
    output wire out_valid
);
    reg [10:0] valid_r;
    always @(posedge clk) begin
        if (rst) valid_r <= 0;
        else valid_r <= {valid_r[9:0], in_valid};
    end
    assign out_valid = valid_r[10];

    // balancing delay line for 11 (1 stages)
    reg [23:0] v11_dly1;
    always @(posedge clk) v11_dly1 <= v11;
    // balancing delay line for 14 (1 stages)
    reg [23:0] v14_dly1;
    always @(posedge clk) v14_dly1 <= v14;
    // balancing delay line for rx (1 stages)
    reg [23:0] rx_dly1;
    always @(posedge clk) rx_dly1 <= in_rx;
    // balancing delay line for ry (1 stages)
    reg [23:0] ry_dly1;
    always @(posedge clk) ry_dly1 <= in_ry;
    // balancing delay line for rz (1 stages)
    reg [23:0] rz_dly1;
    always @(posedge clk) rz_dly1 <= in_rz;
    // balancing delay line for t (10 stages)
    reg [23:0] t_dly1;
    always @(posedge clk) t_dly1 <= in_t;
    reg [23:0] t_dly2;
    always @(posedge clk) t_dly2 <= t_dly1;
    reg [23:0] t_dly3;
    always @(posedge clk) t_dly3 <= t_dly2;
    reg [23:0] t_dly4;
    always @(posedge clk) t_dly4 <= t_dly3;
    reg [23:0] t_dly5;
    always @(posedge clk) t_dly5 <= t_dly4;
    reg [23:0] t_dly6;
    always @(posedge clk) t_dly6 <= t_dly5;
    reg [23:0] t_dly7;
    always @(posedge clk) t_dly7 <= t_dly6;
    reg [23:0] t_dly8;
    always @(posedge clk) t_dly8 <= t_dly7;
    reg [23:0] t_dly9;
    always @(posedge clk) t_dly9 <= t_dly8;
    reg [23:0] t_dly10;
    always @(posedge clk) t_dly10 <= t_dly9;
    wire [23:0] amb = 1600; // const
    wire [23:0] v1_c = in_te - in_t;
    reg [23:0] v1;
    always @(posedge clk) v1 <= v1_c;
    wire [23:0] v2_c = in_tw - in_t;
    reg [23:0] v2;
    always @(posedge clk) v2 <= v2_c;
    wire [23:0] v3_c = in_tn - in_t;
    reg [23:0] v3;
    always @(posedge clk) v3 <= v3_c;
    wire [23:0] v4_c = in_ts - in_t;
    reg [23:0] v4;
    always @(posedge clk) v4 <= v4_c;
    wire [23:0] v5_c = amb - in_t;
    reg [23:0] v5;
    always @(posedge clk) v5 <= v5_c;
    wire [23:0] v6_c = v1 * rx_dly1;
    reg [23:0] v6_p1;
    always @(posedge clk) v6_p1 <= v6_c;
    reg [23:0] v6;
    always @(posedge clk) v6 <= v6_p1;
    wire [23:0] v7_c = v2 * rx_dly1;
    reg [23:0] v7_p1;
    always @(posedge clk) v7_p1 <= v7_c;
    reg [23:0] v7;
    always @(posedge clk) v7 <= v7_p1;
    wire [23:0] v8_c = v3 * ry_dly1;
    reg [23:0] v8_p1;
    always @(posedge clk) v8_p1 <= v8_c;
    reg [23:0] v8;
    always @(posedge clk) v8 <= v8_p1;
    wire [23:0] v9_c = v4 * ry_dly1;
    reg [23:0] v9_p1;
    always @(posedge clk) v9_p1 <= v9_c;
    reg [23:0] v9;
    always @(posedge clk) v9 <= v9_p1;
    wire [23:0] v10_c = v5 * rz_dly1;
    reg [23:0] v10_p1;
    always @(posedge clk) v10_p1 <= v10_c;
    reg [23:0] v10;
    always @(posedge clk) v10 <= v10_p1;
    wire [23:0] v11_c = in_power * in_rz;
    reg [23:0] v11_p1;
    always @(posedge clk) v11_p1 <= v11_c;
    reg [23:0] v11;
    always @(posedge clk) v11 <= v11_p1;
    wire [23:0] v12_c = v6 + v7;
    reg [23:0] v12;
    always @(posedge clk) v12 <= v12_c;
    wire [23:0] v13_c = v8 + v9;
    reg [23:0] v13;
    always @(posedge clk) v13 <= v13_c;
    wire [23:0] v14_c = v10 + v11_dly1;
    reg [23:0] v14;
    always @(posedge clk) v14 <= v14_c;
    wire [23:0] v15_c = v12 + v13;
    reg [23:0] v15;
    always @(posedge clk) v15 <= v15_c;
    wire [23:0] v16_c = v15 + v14_dly1;
    reg [23:0] v16;
    always @(posedge clk) v16 <= v16_c;
    wire [23:0] v17_c = v16 >> 6;
    reg [23:0] v17;
    always @(posedge clk) v17 <= v17_c;
    wire [23:0] v18_c = v17 * 21;
    reg [23:0] v18_p1;
    always @(posedge clk) v18_p1 <= v18_c;
    reg [23:0] v18;
    always @(posedge clk) v18 <= v18_p1;
    wire [23:0] v19_c = v18 >> 4;
    reg [23:0] v19;
    always @(posedge clk) v19 <= v19_c;
    wire [23:0] v20_c = t_dly10 + v19;
    reg [23:0] v20;
    always @(posedge clk) v20 <= v20_c;
    assign out_t_new = v20;
endmodule

// Stream controller of @f0: offset windows and wave alignment.
module tytra_f0_sc (
    input  wire clk,
    input  wire rst,
    input  wire in_valid,
    input  wire [23:0] s_in_t,
    input  wire [23:0] s_in_power,
    input  wire [23:0] s_in_rx,
    input  wire [23:0] s_in_ry,
    input  wire [23:0] s_in_rz,
    output wire [23:0] s_out_t_new,
    output wire out_valid
);
    wire [32759:0] win_t;
    tytra_offset_window #(.WIDTH(24), .DEPTH(1365)) u_win_t (
        .clk(clk), .rst(rst), .en(in_valid), .din(s_in_t), .window(win_t));
    tytra_f0_dp u_dp (
        .clk(clk), .rst(rst), .in_valid(in_valid),
        .in_t(win_t[682*24 +: 24]),
        .in_power(s_in_power),
        .in_rx(s_in_rx),
        .in_ry(s_in_ry),
        .in_rz(s_in_rz),
        .out_t_new(s_out_t_new),
        .in_te(win_t[681*24 +: 24]),
        .in_tw(win_t[683*24 +: 24]),
        .in_tn(win_t[1364*24 +: 24]),
        .in_ts(win_t[0*24 +: 24]),
        .out_valid(out_valid));
endmodule

// Top: kernel boundary of module "hotspot" for HLS integration.
module tytra_top_hotspot (
    input  wire clk,
    input  wire rst,
    input  wire in_valid,
    input  wire [23:0] p_in_main_t0,
    input  wire [23:0] p_in_main_power0,
    input  wire [23:0] p_in_main_rx0,
    input  wire [23:0] p_in_main_ry0,
    input  wire [23:0] p_in_main_rz0,
    output wire [23:0] p_out_main_t_new0,
    input  wire [23:0] p_in_main_t1,
    input  wire [23:0] p_in_main_power1,
    input  wire [23:0] p_in_main_rx1,
    input  wire [23:0] p_in_main_ry1,
    input  wire [23:0] p_in_main_rz1,
    output wire [23:0] p_out_main_t_new1,
    input  wire [23:0] p_in_main_t2,
    input  wire [23:0] p_in_main_power2,
    input  wire [23:0] p_in_main_rx2,
    input  wire [23:0] p_in_main_ry2,
    input  wire [23:0] p_in_main_rz2,
    output wire [23:0] p_out_main_t_new2,
    input  wire [23:0] p_in_main_t3,
    input  wire [23:0] p_in_main_power3,
    input  wire [23:0] p_in_main_rx3,
    input  wire [23:0] p_in_main_ry3,
    input  wire [23:0] p_in_main_rz3,
    output wire [23:0] p_out_main_t_new3,
    output wire out_valid
);
    wire lane_valid_0;
    tytra_f0_sc u_lane_0 (.clk(clk), .rst(rst), .in_valid(in_valid), .s_in_t(p_in_main_t0), .s_in_power(p_in_main_power0), .s_in_rx(p_in_main_rx0), .s_in_ry(p_in_main_ry0), .s_in_rz(p_in_main_rz0), .s_out_t_new(p_out_main_t_new0), .out_valid(lane_valid_0));
    wire lane_valid_1;
    tytra_f0_sc u_lane_1 (.clk(clk), .rst(rst), .in_valid(in_valid), .s_in_t(p_in_main_t1), .s_in_power(p_in_main_power1), .s_in_rx(p_in_main_rx1), .s_in_ry(p_in_main_ry1), .s_in_rz(p_in_main_rz1), .s_out_t_new(p_out_main_t_new1), .out_valid(lane_valid_1));
    wire lane_valid_2;
    tytra_f0_sc u_lane_2 (.clk(clk), .rst(rst), .in_valid(in_valid), .s_in_t(p_in_main_t2), .s_in_power(p_in_main_power2), .s_in_rx(p_in_main_rx2), .s_in_ry(p_in_main_ry2), .s_in_rz(p_in_main_rz2), .s_out_t_new(p_out_main_t_new2), .out_valid(lane_valid_2));
    wire lane_valid_3;
    tytra_f0_sc u_lane_3 (.clk(clk), .rst(rst), .in_valid(in_valid), .s_in_t(p_in_main_t3), .s_in_power(p_in_main_power3), .s_in_rx(p_in_main_rx3), .s_in_ry(p_in_main_ry3), .s_in_rz(p_in_main_rz3), .s_out_t_new(p_out_main_t_new3), .out_valid(lane_valid_3));
    assign out_valid = lane_valid_0 & lane_valid_1 & lane_valid_2 & lane_valid_3;
endmodule
